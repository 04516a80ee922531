"""Run trajectories as columns, convergence detection, confidence bands, export.

A run is stored as a ``Trajectory``: (rounds x agents) arrays of each
agent's quantity, running average, utility derivative, back-off
probability, Bernoulli bit and branch, plus per-round totals and
signals.  Utility values and derivatives are evaluated at the running
average, which is the quantity the convergence claims are about.
``RoundRecord`` is a per-round object view of the same columns, built
only on request.  Exports are written straight from the columns, checked
finite and written atomically, and are byte-deterministic: repeated
export of the same run is identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from statistics import NormalDist
from typing import Iterator, Optional, Sequence

import numpy as np

from .agent import BRANCHES, AgentStepTrace, Branch, Population, Role
from .scenario import ScenarioSpec, atomic_writer
from .utility import ordered_sum

CSV_HEADER = (
    "round,agent_id,role,quantity,running_average,utility_value,utility_derivative,"
    "lambda,bernoulli,branch,total_supply,total_consumption,s_signal,c_signal,sum_of_utilities"
)
# "round,agent_id,role", the agent's seven fields, the round's five fields
CSV_ROW = ",".join(["%s"] * 9)
CSV_ROUND_FIELDS = "%s,%s,%s,%s,%s\n"
JSON_AGENT = (
    '{"agent_id":"%s","role":"%s","quantity":%s,"running_average":%s,"utility_value":%s,'
    '"utility_derivative":%s,"trace":{"backoff_probability":%s,"bernoulli":%s,"branch":"%s"}}'
)
JSON_ROUND = (
    '{"round":%s,"per_agent":[%s],"total_supply":%s,"total_consumption":%s,'
    '"signals":{"supplier_signal":%s,"consumer_signal":%s},"sum_of_utilities":%s}'
)
# Rounds whose export strings are built at a time: export memory stays
# O(EXPORT_CHUNK x agents) whatever the horizon.
EXPORT_CHUNK = 256
# Bytes a worker's part is appended in at a time: parts are never read whole.
COPY_BUFFER = 1 << 20
# The per-agent float columns of a Trajectory, in export order.
FLOAT_COLUMNS = ("quantity", "running_average", "utility_value", "derivative", "backoff_probability")

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
class CapacitySignals:
    """The two one-bit broadcasts; never both set in the same round."""

    supplier_signal: int
    consumer_signal: int


@dataclass(frozen=True)
class RoundRecord:
    round: int
    per_agent: tuple[AgentRoundEntry, ...]
    total_supply: float
    total_consumption: float
    signals: CapacitySignals
    sum_of_utilities: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One run as columns, named as ``market.RoundColumns``: row t holds
    round t, row 0 the initialization step.  Per-agent arrays are (rounds
    x agents) in ``population`` order; totals and signals have one entry
    per round."""

    population: Population
    quantity: np.ndarray
    running_average: np.ndarray
    derivative: np.ndarray  # u'(running_average)
    backoff_probability: np.ndarray
    bernoulli: np.ndarray
    branch: np.ndarray  # indices into agent.BRANCHES
    total_supply: np.ndarray
    total_consumption: np.ndarray
    supplier_signal: np.ndarray
    consumer_signal: np.ndarray

    @cached_property
    def utility_value(self) -> np.ndarray:
        """u(running average) per round and agent, bit for bit as
        ``UtilitySpec.evaluate`` computes it: its ``(z - z*) ** 2`` is libm
        ``pow``, which ``d * d`` and ``np.square`` do not always match."""
        p, avg = self.population, self.running_average
        gaps = (avg - p.optimum.T).ravel().tolist()
        squares = np.array(list(map(math.pow, gaps, repeat(2.0)))).reshape(avg.shape)
        quadratic = -squares / p.curvature.T + 1.5 * p.curvature.T
        return np.where(p.is_sqrt.T, p.scale.T * np.sqrt(avg), quadratic)

    @cached_property
    def sum_of_utilities(self) -> np.ndarray:
        # in agent order; `+ 0.0` turns a -0.0 total into 0.0, as
        # utility.ordered_sum (which starts from 0.0) does
        return self.utility_value.cumsum(axis=1)[:, -1] + 0.0

    def record(self, t: int) -> RoundRecord:
        """Round ``t`` as a ``RoundRecord``."""
        p = self.population
        entries = tuple(
            AgentRoundEntry(agent_id, role, q, avg, value, derivative, AgentStepTrace(lam, bit, BRANCHES[code]))
            for agent_id, role, q, avg, value, derivative, lam, bit, code in zip(
                p.agent_ids,
                p.roles,
                *(getattr(self, name)[t].tolist() for name in FLOAT_COLUMNS),
                self.bernoulli[t].astype(int).tolist(),
                self.branch[t].tolist(),
            )
        )
        signals = CapacitySignals(int(self.supplier_signal[t]), int(self.consumer_signal[t]))
        return RoundRecord(t, entries, float(self.total_supply[t]), float(self.total_consumption[t]), signals,
                           float(self.sum_of_utilities[t]))


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


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of every value of a float array, flattened."""
    return list(map(repr, values.ravel().tolist()))


def _unique_reprs(values: np.ndarray) -> list[str]:
    """``_reprs``, formatting each distinct bit pattern (so 0.0 apart
    from -0.0) once: quicker for a column whose values mostly repeat."""
    bits, index = np.unique(values.ravel().view(np.int64), return_inverse=True)
    return list(map(list(map(repr, bits.view(np.float64).tolist())).__getitem__, index.tolist()))


def _export_chunks(trajectory: Trajectory, starts: range) -> Iterator[tuple[range, list[list], list[list]]]:
    """The chunks of EXPORT_CHUNK rounds that begin at ``starts``, as export text: the
    rounds, the per-agent columns (flattened round by round) and the per-round columns."""
    last = len(trajectory.total_supply)
    branches = [b.value for b in BRANCHES]
    for start in starts:
        rows = slice(start, start + EXPORT_CHUNK)
        # Agents with one step size move in lockstep until they back off, so few
        # quantities are distinct (2% on paper-a, 8% on paper-b) and each is
        # formatted once; deduplicating every column made paper-a's export slower.
        per_agent = [_unique_reprs(trajectory.quantity[rows])]
        per_agent += [_reprs(getattr(trajectory, name)[rows]) for name in FLOAT_COLUMNS[1:]]
        per_agent.append(trajectory.bernoulli[rows].ravel().astype(int).tolist())
        per_agent.append([branches[code] for code in trajectory.branch[rows].ravel().tolist()])
        per_round = [
            _reprs(trajectory.total_supply[rows]),
            _reprs(trajectory.total_consumption[rows]),
            trajectory.supplier_signal[rows].astype(int).tolist(),
            trajectory.consumer_signal[rows].astype(int).tolist(),
            _reprs(trajectory.sum_of_utilities[rows]),
        ]
        yield range(start, min(start + EXPORT_CHUNK, last)), per_agent, per_round


def _write_rounds(fh, trajectory: Trajectory, fmt: str, starts: range) -> None:
    """Write the rows of the chunks that begin at ``starts``: everything but the CSV header
    and the JSON array's brackets."""
    ids, n = trajectory.population.agent_ids, len(trajectory.population.agent_ids)
    roles = tuple(role.value for role in trajectory.population.roles)
    for rounds, per_agent, per_round in _export_chunks(trajectory, starts):
        if fmt == "csv":
            heads = [f"{t},{agent_id},{role}" for t in rounds for agent_id, role in zip(ids, roles)]
            tails = chain.from_iterable(repeat(CSV_ROUND_FIELDS % fields, n) for fields in zip(*per_round))
            fh.write("".join(map(CSV_ROW.__mod__, zip(heads, *per_agent, tails))))
            continue
        entries = list(map(JSON_AGENT.__mod__, zip(ids * len(rounds), roles * len(rounds), *per_agent)))
        for k, (t, fields) in enumerate(zip(rounds, zip(*per_round))):
            per_agent_json = ",".join(entries[k * n : (k + 1) * n])
            fh.write(("," if t > 1 else "") + JSON_ROUND % (t, per_agent_json, *fields))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork_share(trajectory: Trajectory, fmt: str, starts: range, part: Path) -> int:
    """Fork a worker that writes the rounds of ``starts`` to ``part``; return its pid.
    The worker leaves through ``os._exit`` on every path, status 0 on success."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with part.open("x", newline="") as fh:
            _write_rounds(fh, trajectory, fmt, starts)
        status = 0
    finally:
        os._exit(status)


def export_run(trajectory: Trajectory, fmt: str, destination) -> Path:
    """Write rounds 1..horizon as CSV (one row per agent per round) or JSON.

    The CSV schema is fixed (see ``CSV_HEADER``); JSON holds one object per round, shaped as
    ``RoundRecord``, in the bytes ``json.dump`` writes: its strings (agent ids, enum values) need
    no escaping, and a run with a non-finite number is refused with ValueError before anything
    is written.  Failures carry the destination path and leave no partial file.

    Every row is a function of the stored columns alone, so the chunks are split into one
    contiguous share per usable CPU: this process writes the first, forked workers format the
    others into ``.part`` files beside the destination, and their bytes are appended in order.
    The output is the same whatever the number of CPUs.
    """
    destination = Path(destination)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format: {fmt}")
    # also computes the cached utility columns before any worker is forked
    for name in (*FLOAT_COLUMNS, "total_supply", "total_consumption", "sum_of_utilities"):
        if not np.isfinite(getattr(trajectory, name)).all():
            raise ValueError(f"the run overflowed or went non-finite: records column {name}")
    starts = range(1, len(trajectory.total_supply), EXPORT_CHUNK)
    count = max(1, min(_usable_cpus(), len(starts)))
    shares = [starts[k * len(starts) // count : (k + 1) * len(starts) // count] for k in range(count)]
    token = os.urandom(4).hex()
    parts = [destination.with_name(f".{destination.name}.{token}.{k}.part") for k in range(1, count)]
    workers = []  # (pid, part, share) of every worker not yet reaped
    try:
        for part, share in zip(parts, shares[1:]):
            workers.append((_fork_share(trajectory, fmt, share, part), part, share))
        with atomic_writer(destination) as fh:
            fh.write(CSV_HEADER + "\n" if fmt == "csv" else "[")
            _write_rounds(fh, trajectory, fmt, shares[0])
            while workers:
                pid, part, share = workers.pop(0)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status:
                    raise OSError(f"the worker writing rounds from {share[0]} exited with status {status}")
                fh.flush()
                with part.open("rb") as src:
                    shutil.copyfileobj(src, fh.buffer, COPY_BUFFER)
            if fmt == "json":
                fh.write("]\n")
    except OSError as exc:
        raise OSError(f"cannot write run export to {destination}: {exc}") from exc
    finally:
        for pid, _, _ in workers:
            os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)
    return destination


def load_records(path) -> list[RoundRecord]:
    """Re-parse a JSON export into record objects (inverse of export_run)."""
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
    """Write a BandSeries as CSV or JSON, atomically."""
    destination = Path(destination)
    try:
        if fmt == "csv":
            with atomic_writer(destination) as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["round", "mean", "lower", "upper", "replicate_count"])
                for i, rnd in enumerate(band.rounds):
                    writer.writerow(
                        [rnd, repr(band.mean[i]), repr(band.lower[i]), repr(band.upper[i]), band.replicate_count]
                    )
        elif fmt == "json":
            payload = {
                "replicate_count": band.replicate_count,
                "rounds": list(band.rounds),
                "mean": list(band.mean),
                "lower": list(band.lower),
                "upper": list(band.upper),
            }
            with atomic_writer(destination) as fh:
                json.dump(payload, fh, separators=(",", ":"), allow_nan=False)
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
    try:
        values = [u.evaluate(avg) for u, avg in zip(utilities, running_averages)]
    except OverflowError:  # (z - z*) ** 2 past the largest float
        raise ValueError("the run overflowed: final_sum_of_utilities is out of range") from None
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
