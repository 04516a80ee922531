"""Command-line entry point.

Subcommands:
  run        one seeded simulation from a config file or named reference
  replicate  R seeded runs (seed+0..R-1) aggregated into a confidence band
  paper-a    the 9x18 both-concave reference experiment end to end
  paper-b    the monotone-supplier reference experiment end to end
  validate   check a config file's inputs, not its run, and list violations
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .market import replicate_series, run
from .metrics import CONFIDENCE_LEVEL, RecordsExport, band_text, confidence_band
from .scenario import (
    REFERENCE_NAMES,
    MarketConfig,
    ScenarioSpec,
    atomic_writer,
    load_config_file,
    reference_configs,
    save_config_file,
    strict_json,
    validate_config,
    validate_scenario,
)


def _add_common_options(parser: argparse.ArgumentParser, with_source: bool) -> None:
    if with_source:
        parser.add_argument("--config", type=Path, help="config+scenario JSON file")
        parser.add_argument(
            "--reference",
            choices=REFERENCE_NAMES,
            help="use a named reference experiment instead of a config file",
        )
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--horizon", type=int, help="override the number of rounds")
    parser.add_argument("--gamma", type=float, help="override the network constant")
    parser.add_argument("--alpha-s", type=float, help="override the supplier additive step")
    parser.add_argument("--beta-s", type=float, help="override the supplier back-off factor")
    parser.add_argument("--alpha-c", type=float, help="override the consumer additive step")
    parser.add_argument("--beta-c", type=float, help="override the consumer back-off factor")
    parser.add_argument(
        "--flip-signal-semantics",
        action="store_true",
        default=None,
        help="signal the deficit side instead of the excess side",
    )
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aimd-market", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run")
    _add_common_options(p_run, with_source=True)

    p_rep = sub.add_parser("replicate", help="run R seeds and write a confidence band")
    _add_common_options(p_rep, with_source=True)
    p_rep.add_argument("--replicates", type=int, default=20, help="number of seeded runs")

    for name in ("paper-a", "paper-b"):
        p_ref = sub.add_parser(name, help=f"run the {name} reference experiment")
        _add_common_options(p_ref, with_source=False)

    p_val = sub.add_parser("validate", help="check a config file's inputs (not its run)", description=(
        "Check a config file's inputs and list violations.  The simulation is not run: a config whose "
        "run overflows prints ok here, and run refuses it with exit code 1."))
    p_val.add_argument("--config", type=Path, required=True)
    return parser


def _load_inputs(args) -> tuple[MarketConfig, ScenarioSpec]:
    """The command's config, with each parsed option applied that was given and names a ``MarketConfig``
    field, and its scenario."""
    if args.command in ("paper-a", "paper-b"):
        config, scenario = reference_configs()[args.command]
    elif args.config is not None and args.reference is not None:
        raise ValueError("give --config or --reference, not both")
    elif args.config is not None:
        config, scenario = load_config_file(args.config)
    elif args.reference is not None:
        config, scenario = reference_configs()[args.reference]
    else:
        raise ValueError(f"{args.command} requires --config or --reference")
    names = {field.name for field in fields(MarketConfig)}
    return replace(config, **{name: value for name, value in vars(args).items()
                              if name in names and value is not None}), scenario


def _cmd_run(args) -> int:
    config, scenario = _load_inputs(args)
    # the records are formatted while the run is simulated, and written once its summary is accepted
    with RecordsExport(args.format, args.out / f"records.{args.format}") as records:
        result = run(config, scenario, records=records)
        # a non-finite summary fails here, before --out exists, and a non-finite round
        # in commit, which leaves no file
        summary = strict_json(result.summary)
        args.out.mkdir(parents=True, exist_ok=True)
        records_path = records.commit()
    with atomic_writer(args.out / "summary.json") as fh:
        fh.write(summary)
    save_config_file(args.out / "run_config.json", config, scenario)
    print(f"wrote {records_path}")
    print(f"wrote {args.out / 'summary.json'}")
    return 0


def _cmd_replicate(args) -> int:
    config, scenario = _load_inputs(args)
    if args.replicates < 2:
        raise ValueError("replicate needs --replicates >= 2")
    series, summaries = replicate_series(config, scenario, args.replicates)
    meta = {
        "base_seed": config.seed,
        "replicates": args.replicates,
        "seeds": [config.seed + k for k in range(args.replicates)],
        "series": "mean_supplier_derivative",
        "level": CONFIDENCE_LEVEL,
    }
    # a non-finite summary or band fails here, before --out exists
    band_path = args.out / f"band_supplier_derivative.{args.format}"
    parts = {args.out / "replicate_summaries.json": [strict_json(summaries)],
             args.out / "replicate_meta.json": [strict_json(meta)],
             band_path: band_text(confidence_band(series), args.format)}
    args.out.mkdir(parents=True, exist_ok=True)
    for path, chunks in parts.items():
        with atomic_writer(path) as fh:
            fh.writelines(chunks)
    save_config_file(args.out / "run_config.json", config, scenario)
    print(f"wrote {band_path}")
    return 0


def _cmd_validate(args) -> int:
    violations = []  # a contradicting role gamma, then validate_config's lines
    try:
        config, scenario = load_config_file(args.config, violations)
    except ValueError as exc:  # not a config file; a missing file stays an OSError
        violations.append(str(exc))
    else:
        violations += validate_config(config) + validate_scenario(scenario, config)
    if violations:
        text, encoding = "".join(f"violation: {v}\n" for v in violations), sys.stdout.encoding or "utf-8"
        # a character stdout's encoding lacks is written escaped, as \xe9, rather than failing the line
        sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))
        return 1
    print("ok")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's overflow notices stay silent: a run that overflows is refused with one
        # JSON error naming the field (strict_json, RecordsExport), as is one too large to allocate
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "validate":
                return _cmd_validate(args)
            if args.command == "replicate":
                return _cmd_replicate(args)
            return _cmd_run(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
