"""Trajectory recording, convergence detection, confidence bands, export.

A run is recorded as one ``RoundRecord`` per round with a full per-agent
breakdown; utility values and derivatives are evaluated at the running
average, which is the quantity the convergence claims are about.  Exports
are byte-deterministic: repeated export of the same run is identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .agent import AgentStepTrace, Branch, Role
from .scenario import ScenarioSpec
from .utility import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from .market import CapacitySignals

CSV_HEADER = (
    "round,agent_id,role,quantity,running_average,utility_value,utility_derivative,"
    "lambda,bernoulli,branch,total_supply,total_consumption,s_signal,c_signal,sum_of_utilities"
)

# Trailing-window rule for "lingers around" summaries: 10% of the recorded
# horizon but at least 100 rounds, capped by what exists.
MIN_TRAILING_WINDOW = 100


@dataclass(frozen=True)
class AgentRoundEntry:
    agent_id: str
    role: Role
    quantity: float
    running_average: float
    utility_value: float
    utility_derivative: float
    trace: AgentStepTrace


@dataclass(frozen=True)
class RoundRecord:
    round: int
    per_agent: tuple[AgentRoundEntry, ...]
    total_supply: float
    total_consumption: float
    signals: "CapacitySignals"
    sum_of_utilities: float


@dataclass(frozen=True)
class BandSeries:
    """Per-round mean with a symmetric confidence band over replicates."""

    rounds: tuple[int, ...]
    mean: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    replicate_count: int


@dataclass(frozen=True)
class AgentSummary:
    agent_id: str
    role: Role
    final_running_average: float
    optimum: Optional[float]
    distance_to_optimum: Optional[float]
    final_derivative: float

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "role": self.role.value,
            "final_running_average": self.final_running_average,
            "optimum": self.optimum,
            "distance_to_optimum": self.distance_to_optimum,
            "final_derivative": self.final_derivative,
        }


@dataclass(frozen=True)
class RunSummary:
    final_round: int
    window: int
    trailing_mean_supply: float
    trailing_mean_consumption: float
    final_sum_of_utilities: float
    final_supplier_utility_sum: float
    final_consumer_utility_sum: float
    final_mean_abs_derivative: float
    agents: tuple[AgentSummary, ...]

    def to_dict(self) -> dict:
        return {
            "final_round": self.final_round,
            "window": self.window,
            "trailing_mean_supply": self.trailing_mean_supply,
            "trailing_mean_consumption": self.trailing_mean_consumption,
            "final_sum_of_utilities": self.final_sum_of_utilities,
            "final_supplier_utility_sum": self.final_supplier_utility_sum,
            "final_consumer_utility_sum": self.final_consumer_utility_sum,
            "final_mean_abs_derivative": self.final_mean_abs_derivative,
            "agents": [a.to_dict() for a in self.agents],
        }


def detect_convergence(
    series: Sequence[float],
    target: float,
    rel_tol: float,
    window: int,
) -> Optional[int]:
    """Earliest index from which the series stays within rel_tol of target
    for a full window, or None if it never does.  The index is positional:
    callers map it back to round numbers."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    band = rel_tol * max(target, 1e-9)
    consecutive = 0
    for i, value in enumerate(series):
        consecutive = consecutive + 1 if abs(value - target) <= band else 0
        if consecutive >= window:
            return i - window + 1
    return None


def confidence_band(replicates: Sequence[Sequence[float]], level: float = 0.95) -> BandSeries:
    """Normal-approximation band: mean +/- z * s / sqrt(R) per round,
    with the sample standard deviation (n-1 denominator) across replicates."""
    if len(replicates) < 2:
        raise ValueError("confidence_band needs at least 2 replicates")
    lengths = {len(r) for r in replicates}
    if len(lengths) != 1:
        raise ValueError("replicate trajectories must have equal length")
    data = np.asarray(replicates, dtype=float)
    r = data.shape[0]
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    mean = data.mean(axis=0)
    half = z * data.std(axis=0, ddof=1) / math.sqrt(r)
    return BandSeries(
        rounds=tuple(range(1, data.shape[1] + 1)),
        mean=tuple(float(v) for v in mean),
        lower=tuple(float(v) for v in mean - half),
        upper=tuple(float(v) for v in mean + half),
        replicate_count=r,
    )


def mean_derivative_series(records: Sequence[RoundRecord], role: Role) -> list[float]:
    """Per-round mean utility derivative (at the running average) over one role."""
    out = []
    for record in records:
        values = [e.utility_derivative for e in record.per_agent if e.role is role]
        out.append(ordered_sum(values) / len(values))
    return out


def mean_abs_derivative(record: RoundRecord) -> float:
    """Mean |utility derivative| over all agents in one round."""
    return ordered_sum(abs(e.utility_derivative) for e in record.per_agent) / len(record.per_agent)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_to_dict(record: RoundRecord) -> dict:
    return {
        "round": record.round,
        "per_agent": [
            {
                "agent_id": e.agent_id,
                "role": e.role.value,
                "quantity": e.quantity,
                "running_average": e.running_average,
                "utility_value": e.utility_value,
                "utility_derivative": e.utility_derivative,
                "trace": {
                    "backoff_probability": e.trace.backoff_probability,
                    "bernoulli": e.trace.bernoulli,
                    "branch": e.trace.branch.value,
                },
            }
            for e in record.per_agent
        ],
        "total_supply": record.total_supply,
        "total_consumption": record.total_consumption,
        "signals": {
            "supplier_signal": record.signals.supplier_signal,
            "consumer_signal": record.signals.consumer_signal,
        },
        "sum_of_utilities": record.sum_of_utilities,
    }


def export_run(records: Sequence[RoundRecord], fmt: str, destination) -> Path:
    """Write the trajectory as CSV (one row per agent per round) or JSON.

    The CSV schema is fixed (see ``CSV_HEADER``); JSON mirrors the record
    structure field for field.  Failures carry the destination path.
    """
    destination = Path(destination)
    try:
        if fmt == "csv":
            with destination.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_HEADER.split(","))
                for record in records:
                    for e in record.per_agent:
                        writer.writerow(
                            [
                                record.round,
                                e.agent_id,
                                e.role.value,
                                _fmt(e.quantity),
                                _fmt(e.running_average),
                                _fmt(e.utility_value),
                                _fmt(e.utility_derivative),
                                _fmt(e.trace.backoff_probability),
                                e.trace.bernoulli,
                                e.trace.branch.value,
                                _fmt(record.total_supply),
                                _fmt(record.total_consumption),
                                record.signals.supplier_signal,
                                record.signals.consumer_signal,
                                _fmt(record.sum_of_utilities),
                            ]
                        )
        elif fmt == "json":
            with destination.open("w", newline="\n") as fh:
                json.dump([_record_to_dict(r) for r in records], fh, separators=(",", ":"))
                fh.write("\n")
        else:
            raise ValueError(f"unknown export format: {fmt}")
    except OSError as exc:
        raise OSError(f"cannot write run export to {destination}: {exc}") from exc
    return destination


def load_records(path) -> list[RoundRecord]:
    """Re-parse a JSON export into record objects (inverse of export_run)."""
    from .market import CapacitySignals

    raw = json.loads(Path(path).read_text())
    records = []
    for item in raw:
        per_agent = tuple(
            AgentRoundEntry(
                agent_id=e["agent_id"],
                role=Role(e["role"]),
                quantity=e["quantity"],
                running_average=e["running_average"],
                utility_value=e["utility_value"],
                utility_derivative=e["utility_derivative"],
                trace=AgentStepTrace(
                    e["trace"]["backoff_probability"],
                    e["trace"]["bernoulli"],
                    Branch(e["trace"]["branch"]),
                ),
            )
            for e in item["per_agent"]
        )
        records.append(
            RoundRecord(
                round=item["round"],
                per_agent=per_agent,
                total_supply=item["total_supply"],
                total_consumption=item["total_consumption"],
                signals=CapacitySignals(
                    item["signals"]["supplier_signal"],
                    item["signals"]["consumer_signal"],
                ),
                sum_of_utilities=item["sum_of_utilities"],
            )
        )
    return records


def export_band_series(band: BandSeries, fmt: str, destination) -> Path:
    """Write a BandSeries as CSV or JSON."""
    destination = Path(destination)
    try:
        if fmt == "csv":
            with destination.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["round", "mean", "lower", "upper", "replicate_count"])
                for i, rnd in enumerate(band.rounds):
                    writer.writerow(
                        [rnd, _fmt(band.mean[i]), _fmt(band.lower[i]), _fmt(band.upper[i]), band.replicate_count]
                    )
        elif fmt == "json":
            payload = {
                "replicate_count": band.replicate_count,
                "rounds": list(band.rounds),
                "mean": list(band.mean),
                "lower": list(band.lower),
                "upper": list(band.upper),
            }
            with destination.open("w", newline="\n") as fh:
                json.dump(payload, fh, separators=(",", ":"))
                fh.write("\n")
        else:
            raise ValueError(f"unknown export format: {fmt}")
    except OSError as exc:
        raise OSError(f"cannot write band series to {destination}: {exc}") from exc
    return destination


def trailing_window(rounds: int) -> int:
    """Length of the "lingers around" window over ``rounds`` recorded rounds."""
    return min(rounds, max(MIN_TRAILING_WINDOW, math.ceil(0.1 * rounds)))


def summarize(records: Sequence[RoundRecord], scenario: ScenarioSpec) -> RunSummary:
    """Trailing-window totals plus per-agent closing state."""
    if not records:
        raise ValueError("summarize needs at least one round")
    window = trailing_window(len(records))
    tail = records[-window:]
    final = records[-1]
    return summarize_final(
        final.round,
        window,
        ordered_sum(r.total_supply for r in tail) / window,
        ordered_sum(r.total_consumption for r in tail) / window,
        [e.running_average for e in final.per_agent],
        [e.utility_derivative for e in final.per_agent],
        scenario,
    )


def summarize_final(
    final_round: int,
    window: int,
    trailing_mean_supply: float,
    trailing_mean_consumption: float,
    running_averages: Sequence[float],
    derivatives: Sequence[float],
    scenario: ScenarioSpec,
) -> RunSummary:
    """The summary of a run from its trailing-window means and each
    agent's final running average and derivative (suppliers first)."""
    s = len(scenario.supplier_utilities)
    utilities = scenario.supplier_utilities + scenario.consumer_utilities
    values = [u.evaluate(avg) for u, avg in zip(utilities, running_averages)]
    agents = []
    for k, (u, avg, derivative) in enumerate(zip(utilities, running_averages, derivatives)):
        optimum = u.argmax()
        agents.append(
            AgentSummary(
                agent_id=f"s{k}" if k < s else f"c{k - s}",
                role=Role.SUPPLIER if k < s else Role.CONSUMER,
                final_running_average=avg,
                optimum=optimum,
                distance_to_optimum=None if optimum is None else abs(avg - optimum),
                final_derivative=derivative,
            )
        )
    return RunSummary(
        final_round=final_round,
        window=window,
        trailing_mean_supply=trailing_mean_supply,
        trailing_mean_consumption=trailing_mean_consumption,
        final_sum_of_utilities=ordered_sum(values),
        final_supplier_utility_sum=ordered_sum(values[:s]),
        final_consumer_utility_sum=ordered_sum(values[s:]),
        final_mean_abs_derivative=ordered_sum(abs(d) for d in derivatives) / len(derivatives),
        agents=tuple(agents),
    )
