"""aimd-market benchmark: end-to-end CLI runs plus a traced per-layer run.

    python3 perfbench/run.py --workload paper-a-csv [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``./src``.  Every sample is a fresh child process (``child.py``) that
calls ``aimdmarket.cli.main`` once; only one child runs at a time.  Each
sample's artifacts are checked: at the reference seed against golden
SHA-256 digests (``goldens.json``); otherwise the first sample gets a
structural check and every later sample must reproduce its bytes.
Values are medians over a run's samples.  The CLI time is reported at a
reference host speed (see ``CALIBRATION_REF_S``); raw seconds and sample
counts are printed beside it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (the first half
of the time runs untraced samples, as the base of ``trace.overhead_s``).
The lines above it print every metric with its unit, the environment and
the dynamics counts.  ``--horizon`` shortens the run for smoke tests and
disables the golden check.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from child import TRACED

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
GOLDENS = HERE / "goldens.json"
WORK_DIR = ".perfbench_work"

CHILD_TIMEOUT_S = 150
AGENTS = 27  # both reference experiments: 9 suppliers, 18 consumers

# The host's speed drifts over minutes: on a shared 2-vCPU VM the median
# CLI time of a 35 s run spread by up to 27% (IQR/median over ten runs),
# and the fastest sample of a run by as much.  Each child times a fixed
# loop (child.calibrate) around its CLI call; dividing by it roughly halved
# that spread.  ``wall_norm_s`` is wall_s * CALIBRATION_REF_S / calibration_s,
# where CALIBRATION_REF_S is the loop's time on an uncontended vCPU of that
# VM (Python 3.11.7).
CALIBRATION_REF_S = 0.090


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    seed: int  # the reference seed; goldens are pinned at it
    rounds: int
    replicates: int
    artifacts: tuple[str, ...]


# paper-a-csv: CSV export and per-round recording dominate.
# paper-b-json: sqrt suppliers (lambda = 1 path), JSON export, highest memory.
# replicate-band: agent kernel and recording; export is negligible.
WORKLOADS = {
    "paper-a-csv": Workload(
        ("paper-a", "--format", "csv"), 42, 5000, 1, ("records.csv", "run_config.json", "summary.json")
    ),
    "paper-b-json": Workload(
        ("paper-b", "--format", "json"), 43, 5000, 1, ("records.json", "run_config.json", "summary.json")
    ),
    "replicate-band": Workload(
        ("replicate", "--reference", "paper-a", "--replicates", "8", "--horizon", "2000", "--format", "csv"),
        42,
        2000,
        8,
        ("band_supplier_derivative.csv", "replicate_meta.json", "replicate_summaries.json", "run_config.json"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "agent_steps_per_norm_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

TRACED_LAYERS = tuple(name for name, _, _ in TRACED)

DYNAMICS_COUNTS = (
    "market.rounds",
    "market.supplier_signal_rounds",
    "market.consumer_signal_rounds",
    "market.tie_rounds",
    "agent.signalled_steps",
    "agent.backoffs",
    "agent.lambda_one_steps",
)

PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in TRACED_LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "metrics.export_run.bytes": "B",
    "metrics.export_run.bytes_per_s": "B/s",
    "trace.overhead_s": "s",
    "host.calibration_s": "s",
    **{name: "count" for name in DYNAMICS_COUNTS},
    "agent.backoff_ratio": "ratio",
}


class CheckFailed(Exception):
    """An artifact is missing, malformed or differs from its reference."""


# ---------------------------------------------------------------- checks


def _reject_constant(name):
    raise CheckFailed(f"non-strict JSON constant {name}")


def _strict_json(path: Path):
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: invalid JSON: {exc}") from exc


def _finite(value, what: str, nonnegative: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value) or (nonnegative and value < 0):
        raise CheckFailed(f"{what} = {value!r}")
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class DynamicsCounter:
    """Signal and back-off counts, one agent-round at a time."""

    def __init__(self):
        self.counts = dict.fromkeys(DYNAMICS_COUNTS, 0)

    def round(self, s_signal: int, c_signal: int) -> None:
        self.counts["market.rounds"] += 1
        self.counts["market.supplier_signal_rounds"] += s_signal
        self.counts["market.consumer_signal_rounds"] += c_signal
        self.counts["market.tie_rounds"] += not (s_signal or c_signal)

    def step(self, signalled: bool, lam: float, bernoulli: int) -> None:
        if signalled:
            self.counts["agent.signalled_steps"] += 1
            self.counts["agent.lambda_one_steps"] += lam == 1.0
        else:
            _require(lam == 0.0, f"unsignalled step with lambda {lam}")
        self.counts["agent.backoffs"] += bernoulli

    def result(self) -> dict:
        counts = dict(self.counts)
        counts["agent.backoff_ratio"] = counts["agent.backoffs"] / max(counts["agent.signalled_steps"], 1)
        return counts


def _check_agent_row(counter, role, quantity, avg, value, deriv, lam, bernoulli, s_signal, c_signal, where):
    _require(role in ("supplier", "consumer"), f"{where}: role {role!r}")
    _finite(quantity, f"{where} quantity", nonnegative=True)
    _finite(avg, f"{where} running_average", nonnegative=True)
    _finite(value, f"{where} utility_value")
    _finite(deriv, f"{where} utility_derivative")
    lam = _finite(lam, f"{where} lambda", nonnegative=True)
    _require(lam <= 1.0, f"{where}: lambda {lam} > 1")
    _require(bernoulli in (0, 1), f"{where}: bernoulli {bernoulli!r}")
    counter.step(bool(s_signal if role == "supplier" else c_signal), lam, bernoulli)


def _check_round_totals(counter, total_s, total_c, sum_u, s_signal, c_signal, where):
    _finite(total_s, f"{where} total_supply", nonnegative=True)
    _finite(total_c, f"{where} total_consumption", nonnegative=True)
    _finite(sum_u, f"{where} sum_of_utilities")
    _require(s_signal in (0, 1) and c_signal in (0, 1) and not (s_signal and c_signal), f"{where}: signals")
    counter.round(s_signal, c_signal)


def _check_records_csv(path: Path, rounds: int) -> dict:
    counter = DynamicsCounter()
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        col = {name: i for i, name in enumerate(header)}
        need = ("round", "role", "quantity", "running_average", "utility_value", "utility_derivative",
                "lambda", "bernoulli", "total_supply", "total_consumption", "s_signal", "c_signal",
                "sum_of_utilities")
        _require(all(name in col for name in need), f"{path.name}: header {header}")
        rows = 0
        for rows, row in enumerate(reader, start=1):
            rnd = (rows - 1) // AGENTS + 1
            where = f"{path.name} row {rows}"
            _require(len(row) == len(header) and int(row[col["round"]]) == rnd, f"{where}: round/shape")
            s_signal, c_signal = int(row[col["s_signal"]]), int(row[col["c_signal"]])
            if (rows - 1) % AGENTS == 0:
                _check_round_totals(counter, row[col["total_supply"]], row[col["total_consumption"]],
                                    row[col["sum_of_utilities"]], s_signal, c_signal, where)
            _check_agent_row(counter, row[col["role"]], row[col["quantity"]], row[col["running_average"]],
                             row[col["utility_value"]], row[col["utility_derivative"]], row[col["lambda"]],
                             int(row[col["bernoulli"]]), s_signal, c_signal, where)
    _require(rows == rounds * AGENTS, f"{path.name}: {rows} rows, expected {rounds} x {AGENTS}")
    return counter.result()


def _check_records_json(path: Path, rounds: int) -> dict:
    counter = DynamicsCounter()
    data = _strict_json(path)
    _require(isinstance(data, list) and len(data) == rounds, f"{path.name}: expected {rounds} rounds")
    for k, record in enumerate(data):
        where = f"{path.name} round {k + 1}"
        _require(record["round"] == k + 1 and len(record["per_agent"]) == AGENTS, f"{where}: round/shape")
        s_signal = record["signals"]["supplier_signal"]
        c_signal = record["signals"]["consumer_signal"]
        _check_round_totals(counter, record["total_supply"], record["total_consumption"],
                            record["sum_of_utilities"], s_signal, c_signal, where)
        for e in record["per_agent"]:
            trace = e["trace"]
            _check_agent_row(counter, e["role"], e["quantity"], e["running_average"], e["utility_value"],
                             e["utility_derivative"], trace["backoff_probability"], trace["bernoulli"],
                             s_signal, c_signal, where)
    return counter.result()


def _check_summary(summary, rounds: int, where: str) -> None:
    _require(summary["final_round"] == rounds, f"{where}: final_round {summary['final_round']}")
    _require(len(summary["agents"]) == AGENTS, f"{where}: agent count")
    for key in ("trailing_mean_supply", "trailing_mean_consumption"):
        _finite(summary[key], f"{where} {key}", nonnegative=True)
    for agent in summary["agents"]:
        _finite(agent["final_running_average"], f"{where} final_running_average", nonnegative=True)


def _check_band_csv(path: Path, rounds: int, replicates: int) -> None:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader, []) == ["round", "mean", "lower", "upper", "replicate_count"], f"{path.name}: header")
        rows = 0
        for rows, row in enumerate(reader, start=1):
            where = f"{path.name} row {rows}"
            _require(len(row) == 5 and int(row[0]) == rows and int(row[4]) == replicates, f"{where}: shape")
            mean, lower, upper = (_finite(v, where) for v in row[1:4])
            _require(lower <= mean <= upper, f"{where}: band not ordered")
    _require(rows == rounds, f"{path.name}: {rows} rows, expected {rounds}")


def check_structure(workload: Workload, out: Path, seed: int, rounds: int) -> dict:
    """Validate every artifact; return the dynamics counts (zero for bands)."""
    try:
        return _check_structure(workload, out, seed, rounds)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"malformed artifact: {exc!r}") from exc


def _check_structure(workload: Workload, out: Path, seed: int, rounds: int) -> dict:
    config = _strict_json(out / "run_config.json").get("config", {})
    _require(config.get("seed") == seed and config.get("horizon") == rounds, "run_config.json: seed/horizon")
    if workload.replicates == 1:
        _check_summary(_strict_json(out / "summary.json"), rounds, "summary.json")
        records = out / workload.artifacts[0]
        if records.suffix == ".csv":
            return _check_records_csv(records, rounds)
        return _check_records_json(records, rounds)
    _check_band_csv(out / workload.artifacts[0], rounds, workload.replicates)
    meta = _strict_json(out / "replicate_meta.json")
    _require(meta.get("seeds") == [seed + k for k in range(workload.replicates)], "replicate_meta.json: seeds")
    summaries = _strict_json(out / "replicate_summaries.json")
    _require(isinstance(summaries, list) and len(summaries) == workload.replicates, "replicate_summaries.json")
    for k, summary in enumerate(summaries):
        _check_summary(summary, rounds, f"replicate_summaries.json[{k}]")
    return DynamicsCounter().result()


def digest_artifacts(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------- children


def run_child(root: Path, work: Path, cli_args, *, trace=False) -> dict:
    """Run one child to completion; return its report or raise CheckFailed."""
    report_path = work / "report.json"
    spans_path = work / "spans.npz"
    for stale in (report_path, spans_path):
        stale.unlink(missing_ok=True)
    own = [str(report_path)]
    if trace:
        own += ["--trace", str(spans_path)]
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")])),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(work),
    )
    env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *own, "--", *cli_args],
            cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise CheckFailed(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    stderr = proc.stderr.strip()
    if proc.returncode != 0 or "Traceback" in stderr:
        raise CheckFailed(f"child exit {proc.returncode}: {stderr[-2000:]}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"no child report: {exc}") from exc
    package = Path(report["package_file"]).resolve()
    if not package.is_relative_to((root / "src").resolve()):
        raise CheckFailed(f"aimdmarket imported from {package}, not from this checkout")
    if trace:
        report["layers"] = layer_times(spans_path)
    return report


def layer_times(spans_path: Path) -> dict:
    """Per span name: calls, self time and total time."""
    with np.load(spans_path) as spans:
        names = [str(n) for n in spans["names"]]
        name_id, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    size = len(names)
    calls = np.bincount(name_id, minlength=size)
    self_s = np.bincount(name_id, weights=duration - covered, minlength=size)
    total_s = np.bincount(name_id, weights=duration, minlength=size)
    return {n: (int(calls[i]), float(self_s[i]), float(total_s[i])) for i, n in enumerate(names)}


# ---------------------------------------------------------------- measurement


def measure(root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool,
            horizon: int | None = None, tamper=None) -> dict:
    """Run one workload for ``seconds``; return samples, failures and checks.

    ``tamper(out_dir)``, when given, runs after each child and before the
    check (the smoke test uses it to corrupt artifacts on purpose).
    """
    workload = WORKLOADS[name]
    rounds = horizon or workload.rounds
    cli_args = [*workload.cli_args, "--seed", str(seed), "--out", str(work / "out")]
    if horizon is not None:
        cli_args += ["--horizon", str(horizon)]
    golden = None
    if horizon is None and GOLDENS.is_file():
        pinned = json.loads(GOLDENS.read_text())[name]
        golden = pinned["digests"] if pinned["seed"] == seed else None

    result = {"setup_s": [], "untraced": [], "traced": [], "attempted": 0, "failures": [],
              "counts": None, "export_bytes": 0, "check": "golden" if golden else "structure"}
    start = time.monotonic()
    reference = None
    phases = [(False, seconds / 2 if trace else seconds)] + ([(True, seconds)] if trace else [])
    for traced, until in phases:
        first = True
        while first or time.monotonic() - start < until:
            first = False
            result["attempted"] += 1
            shutil.rmtree(work / "out", ignore_errors=True)
            try:
                report = run_child(root, work, cli_args, trace=traced)
                if tamper is not None:
                    tamper(work / "out")
                digests = digest_artifacts(work / "out")
                _require(sorted(digests) == sorted(workload.artifacts), f"artifacts {sorted(digests)}")
                if golden is not None:
                    bad = sorted(f for f in digests if digests[f] != golden.get(f))
                    _require(not bad, f"golden digest mismatch: {bad}")
                if reference is None:
                    result["counts"] = check_structure(workload, work / "out", seed, rounds)
                    reference = digests
                else:
                    _require(digests == reference, "artifacts differ from the first sample of this run")
            except CheckFailed as exc:
                result["failures"].append(str(exc))
                continue
            result["setup_s"].append(report["setup_s"])
            result["versions"] = (report["python"], report["numpy"])
            result["traced" if traced else "untraced"].append(report)
            if traced:
                result["absent"] = report["absent"]
                result["export_bytes"] = sum(
                    (work / "out" / f).stat().st_size for f in workload.artifacts if f.startswith("records.")
                )
    result["steps"] = rounds * AGENTS * workload.replicates
    return result


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end_metrics(result: dict) -> dict:
    untraced = result["untraced"]
    wall = _median([r["wall_s"] * CALIBRATION_REF_S / r["calibration_s"] for r in untraced])
    ok = len(untraced) + len(result["traced"])
    return {
        "setup_s": _median(result["setup_s"]),
        "wall_norm_s": wall,
        "agent_steps_per_norm_s": result["steps"] / wall,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "success_rate": ok / result["attempted"],
    }


def per_layer_metrics(result: dict) -> dict:
    traced = result["traced"]
    metrics = {}
    for layer in TRACED_LAYERS:
        rows = [r["layers"][layer] for r in traced if layer in r["layers"]]
        metrics[f"{layer}.calls"] = rows[0][0] if rows else 0  # same seed, same calls
        metrics[f"{layer}.self_s"] = _median([self_s for _, self_s, _ in rows]) if rows else 0.0
    export_s = _median([r["layers"]["metrics.export_run"][2] for r in traced if "metrics.export_run" in r["layers"]])
    metrics["metrics.export_run.bytes"] = result["export_bytes"]
    metrics["metrics.export_run.bytes_per_s"] = result["export_bytes"] / export_s if export_s > 0 else 0.0
    metrics["trace.overhead_s"] = (
        _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in result["untraced"]])
    )
    metrics["host.calibration_s"] = _median([r["calibration_s"] for r in traced])
    metrics.update(result["counts"] or DynamicsCounter().result())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, help="run seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, help="override the number of rounds (smoke tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aimdmarket" / "__init__.py").is_file():
        print(f"perfbench: no aimdmarket sources under {root / 'src'}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed
    work = root / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    try:
        result = measure(root, work, args.workload, seed, args.seconds, bool(args.trace), args.horizon)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (root / WORK_DIR).is_dir() and not any((root / WORK_DIR).iterdir()):
            (root / WORK_DIR).rmdir()
    load_end = os.getloadavg()

    failed = len(result["failures"])
    python, numpy_version = result.get("versions", ("?", "?"))
    print(f"env python={python} numpy={numpy_version} nproc={len(os.sched_getaffinity(0))} "
          f"loadavg_start={load_start[0]:.2f},{load_start[1]:.2f} loadavg_end={load_end[0]:.2f},{load_end[1]:.2f}")
    print(f"workload {args.workload} seed={seed} check={result['check']} attempted={result['attempted']} "
          f"failed={failed} error_rate={failed / result['attempted']:.4f} "
          f"untraced_samples={len(result['untraced'])} traced_samples={len(result['traced'])} "
          f"setup_samples={len(result['setup_s'])}")
    for failure in result["failures"]:
        print(f"failure {failure}")
    if result.get("absent"):
        print(f"absent {','.join(result['absent'])}")
    e2e = end_to_end_metrics(result)
    raw_wall = [r["wall_s"] for r in result["untraced"]]
    for key, value in e2e.items():
        print(f"metric {key} {value:.6g} {END_TO_END_UNITS[key]}")
    print(f"raw wall_s median={_median(raw_wall):.6g} s samples={len(raw_wall)} "
          f"calibration_s median={_median([r['calibration_s'] for r in result['untraced']]):.6g} s")
    layers = per_layer_metrics(result) if args.trace else {}
    for key, value in layers.items():
        print(f"layer {key} {value:.6g} {PER_LAYER_UNITS[key]}")
    if not args.trace:
        for key, value in (result["counts"] or {}).items():
            print(f"count {key} {value:.6g}")

    chosen, units = (layers, PER_LAYER_UNITS) if args.trace else (e2e, END_TO_END_UNITS)
    metrics = {
        key: {"value": value if math.isfinite(value) else 0.0, "unit": units[key]} for key, value in chosen.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
