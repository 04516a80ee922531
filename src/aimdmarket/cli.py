"""Command-line entry point.

Subcommands:
  run        one seeded simulation from a config file or named reference
  replicate  R seeded runs (seed+0..R-1) aggregated into a confidence band
  paper-a    the 9x18 both-concave reference experiment end to end
  paper-b    the monotone-supplier reference experiment end to end
  validate   check a config file and list violations
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .agent import Role
from .market import replicate_series, run
from .metrics import confidence_band, export_band_series, export_run
from .scenario import (
    MarketConfig,
    ScenarioSpec,
    atomic_writer,
    load_config_file,
    reference_configs,
    save_config_file,
    strict_json,
    validate_config,
    validate_scenario,
    write_json,
)


def _add_common_options(parser: argparse.ArgumentParser, with_source: bool) -> None:
    if with_source:
        parser.add_argument("--config", type=Path, help="config+scenario JSON file")
        parser.add_argument(
            "--reference",
            choices=sorted(reference_configs().keys()),
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

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", type=Path, required=True)
    return parser


def _load_inputs(args) -> tuple[MarketConfig, ScenarioSpec]:
    if args.command in ("paper-a", "paper-b"):
        return reference_configs()[args.command]
    if getattr(args, "config", None) is not None:
        return load_config_file(args.config)
    if getattr(args, "reference", None) is not None:
        return reference_configs()[args.reference]
    raise ValueError(f"{args.command} requires --config or --reference")


def _apply_overrides(config: MarketConfig, args) -> MarketConfig:
    return config.with_overrides(
        seed=args.seed,
        horizon=args.horizon,
        gamma=args.gamma,
        alpha_s=args.alpha_s,
        beta_s=args.beta_s,
        alpha_c=args.alpha_c,
        beta_c=args.beta_c,
    )


def _cmd_run(args) -> int:
    config, scenario = _load_inputs(args)
    config = _apply_overrides(config, args)
    result = run(config, scenario, flip_signal_semantics=args.flip_signal_semantics)

    # a non-finite summary fails here and a non-finite round in export_run,
    # both before anything is written
    summary = strict_json(result.summary.to_dict())
    args.out.mkdir(parents=True, exist_ok=True)
    records_path = export_run(result.trajectory, args.format, args.out / f"records.{args.format}")
    with atomic_writer(args.out / "summary.json") as fh:
        fh.write(summary)
    save_config_file(args.out / "run_config.json", config, scenario)
    print(f"wrote {records_path}")
    print(f"wrote {args.out / 'summary.json'}")
    return 0


def _cmd_replicate(args) -> int:
    config, scenario = _load_inputs(args)
    config = _apply_overrides(config, args)
    if args.replicates < 2:
        raise ValueError("replicate needs --replicates >= 2")
    series, summaries = replicate_series(
        config,
        scenario,
        args.replicates,
        flip_signal_semantics=args.flip_signal_semantics,
        role=Role.SUPPLIER,
    )
    band = confidence_band(series)

    args.out.mkdir(parents=True, exist_ok=True)
    save_config_file(args.out / "run_config.json", config, scenario)
    band_path = export_band_series(
        band, args.format, args.out / f"band_supplier_derivative.{args.format}"
    )
    write_json(args.out / "replicate_summaries.json", [s.to_dict() for s in summaries])
    meta = {
        "base_seed": config.seed,
        "replicates": args.replicates,
        "seeds": [config.seed + k for k in range(args.replicates)],
        "series": "mean_supplier_derivative",
        "level": 0.95,
    }
    write_json(args.out / "replicate_meta.json", meta)
    print(f"wrote {band_path}")
    return 0


def _cmd_validate(args) -> int:
    config, scenario = load_config_file(args.config)
    violations = validate_config(config) + validate_scenario(scenario, config)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("ok")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's overflow notices stay silent: a run that overflows is refused
        # with one JSON error naming the field (strict_json, export_run)
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "validate":
                return _cmd_validate(args)
            if args.command == "replicate":
                return _cmd_replicate(args)
            return _cmd_run(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
