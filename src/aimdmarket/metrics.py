"""Run trajectories as columns, convergence detection, confidence bands, export.

A run is stored as a ``Trajectory``: (rounds x agents) arrays of each
agent's quantity, running average, utility derivative, back-off
probability, Bernoulli bit and branch, plus per-round totals and
signals.  Utility values and derivatives are evaluated at the running
average, which is the quantity the convergence claims are about.
Exports are written straight from the columns, checked finite and
written atomically, and are byte-deterministic: repeated export of the
same run is identical.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .agent import BRANCHES, Population, Role
from .scenario import atomic_writer
from .text import compact, float_text, int_text, join, literals
from .utility import ordered_sum

CSV_HEADER = (
    "round,agent_id,role,quantity,running_average,utility_value,utility_derivative,"
    "lambda,bernoulli,branch,total_supply,total_consumption,s_signal,c_signal,sum_of_utilities"
)
# Rounds whose export rows are built at a time: export memory stays
# O(EXPORT_CHUNK x agents) whatever the horizon.
EXPORT_CHUNK = 256
# Band rows built at a time, for the same reason.
BAND_CHUNK = 8192
# Bytes a worker's part is appended in at a time: parts are never read whole.
COPY_BUFFER = 1 << 20
# The per-agent float columns of a Trajectory, in export order.
FLOAT_COLUMNS = ("quantity", "running_average", "utility_value", "derivative", "backoff_probability")
# Agents with one step size move in lockstep until they back off, and an agent's lambda is 0.0
# unless it is signalled, so these columns repeat: in the median 256-round chunk 1.6% and 26%
# of their values are distinct on paper-a, 7.8% and 6.9% on paper-b.  Each distinct value is
# formatted once; the other columns are 61-100% distinct.
REPEATING_COLUMNS = ("quantity", "backoff_probability")

# The confidence bands' level, and its two-sided normal quantile NormalDist().inv_cdf(0.975)
# written out, so that no run imports `statistics`.
CONFIDENCE_LEVEL, CONFIDENCE_Z = 0.95, 1.9599639845400536

# Trailing-window rule for "lingers around" summaries: 10% of the recorded
# horizon but at least 100 rounds, capped by what exists.
MIN_TRAILING_WINDOW = 100


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One run as columns: row t holds round t, row 0 the initialization step.  Per-agent arrays are (rounds
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
    def _utilities(self) -> tuple[np.ndarray, np.ndarray]:
        """``utility_value`` and ``sum_of_utilities`` (in agent order), EXPORT_CHUNK rounds at a time, so
        that no whole-run list of Python floats is built."""
        family, avg = self.population.family, self.running_average
        values, sums = np.empty(avg.shape), np.empty(len(avg))
        for start in range(0, len(avg), EXPORT_CHUNK):
            rows = slice(start, start + EXPORT_CHUNK)
            values[rows] = family.values(avg[rows].T).T
            sums[rows] = ordered_sum(values[rows], axis=1)
        return values, sums

    utility_value = property(lambda self: self._utilities[0])  # u(running average) per round and agent
    sum_of_utilities = property(lambda self: self._utilities[1])  # per round


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


def confidence_band(replicates: Sequence[Sequence[float]]) -> BandSeries:
    """Normal-approximation band at CONFIDENCE_LEVEL: mean +/- z * s / sqrt(R) per round,
    with the sample standard deviation (n-1 denominator) across replicates."""
    if len(replicates) < 2:
        raise ValueError("confidence_band needs at least 2 replicates")
    lengths = {len(r) for r in replicates}
    if len(lengths) != 1:
        raise ValueError("replicate trajectories must have equal length")
    data = np.asarray(replicates, dtype=float)
    r = data.shape[0]
    mean = data.mean(axis=0)
    half = CONFIDENCE_Z * data.std(axis=0, ddof=1) / math.sqrt(r)
    return BandSeries(
        rounds=tuple(range(1, data.shape[1] + 1)),
        mean=tuple(mean.tolist()),
        lower=tuple((mean - half).tolist()),
        upper=tuple((mean + half).tolist()),
        replicate_count=r,
    )


def _distinct_text(values: np.ndarray) -> np.ndarray:
    """``float_text``, formatting each distinct bit pattern (so 0.0 apart from -0.0) once."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return float_text(bits.view(np.float64)).take(index.ravel(), axis=0)


def _chunk_rows(trajectory: Trajectory, fmt: str, rows: slice, agents, traces, signals) -> np.ndarray:
    """The export rows of ``rows`` as NUL-padded uint8 text: one CSV row per round and agent, or
    one JSON round object per round (led by a comma after round 1).  ``agents``, ``traces`` and
    ``signals`` are the format's literal text by agent, by bernoulli bit and branch code, and by
    both signals."""
    t = np.arange(len(trajectory.total_supply))[rows]
    r, n = len(t), len(trajectory.population.agent_ids)
    quantity, average, value, derivative, backoff = (
        (_distinct_text if name in REPEATING_COLUMNS else float_text)(getattr(trajectory, name)[rows]).reshape(r, n, -1)
        for name in FLOAT_COLUMNS
    )
    # the per-round columns are short: one call, split back into columns
    supply, consumption, total = float_text(np.concatenate(
        [trajectory.total_supply[rows], trajectory.total_consumption[rows], trajectory.sum_of_utilities[rows]]
    )).reshape(3, r, -1)
    trace = traces.take(trajectory.bernoulli[rows] * len(BRANCHES) + trajectory.branch[rows], axis=0)
    signals = signals.take(trajectory.supplier_signal[rows] * 2 + trajectory.consumer_signal[rows], axis=0)
    if fmt == "csv":
        tail = join((r,), [supply, ",", consumption, signals, total, "\n"])
        return join((r, n), [int_text(t)[:, None], agents, quantity, ",", average, ",", value, ",", derivative,
                              ",", backoff, trace, tail[:, None]])
    entries = join((r, n), [agents, quantity, ',"running_average":', average, ',"utility_value":', value,
                             ',"utility_derivative":', derivative, ',"trace":{"backoff_probability":', backoff,
                             trace])
    lead = np.where(t > 1, ord(","), 0).astype(np.uint8)[:, None]
    return join((r,), [lead, '{"round":', int_text(t), ',"per_agent":[', entries.reshape(r, -1),
                        '],"total_supply":', supply, ',"total_consumption":', consumption, signals,
                        ',"sum_of_utilities":', total, "}"])


def _write_rounds(fh, trajectory: Trajectory, fmt: str, starts: range) -> None:
    """Write the rows of the chunks that begin at ``starts``: everything but the CSV header
    and the JSON array's brackets."""
    ids, roles = trajectory.population.agent_ids, [role.value for role in trajectory.population.roles]
    # each agent's text before its quantity, the trace fields, and the signals (by 2 s + c)
    if fmt == "csv":
        agents = literals([f",{agent_id},{role}," for agent_id, role in zip(ids, roles)])
        traces = literals([f",{bit},{b.value}," for bit in (0, 1) for b in BRANCHES])
        signals = literals([f",{s},{c}," for s in (0, 1) for c in (0, 1)])
    else:
        agents = literals([f'{"," if k else ""}{{"agent_id":"{agent_id}","role":"{role}","quantity":'
                            for k, (agent_id, role) in enumerate(zip(ids, roles))])
        traces = literals([f',"bernoulli":{bit},"branch":"{b.value}"}}}}' for bit in (0, 1) for b in BRANCHES])
        signals = literals([f',"signals":{{"supplier_signal":{s},"consumer_signal":{c}}}'
                            for s in (0, 1) for c in (0, 1)])
    fh.flush()  # the rows are bytes, written under the text layer
    for start in starts:
        rows = _chunk_rows(trajectory, fmt, slice(start, start + EXPORT_CHUNK), agents, traces, signals)
        fh.buffer.write(compact(rows))


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

    The CSV schema is fixed (see ``CSV_HEADER``); JSON holds one object per round (its
    per-agent entries, totals, signals and sum of utilities) in the bytes ``json.dump`` writes:
    its strings (agent ids, enum values) need no escaping, and a run with a non-finite number
    is refused with ValueError before anything is written.  Failures carry the destination
    path and leave no partial file.

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


def export_band_series(band: BandSeries, fmt: str, destination) -> Path:
    """Write a BandSeries as CSV or JSON, atomically; a non-finite band is
    refused with a ValueError before the file is opened."""
    destination = Path(destination)
    for name in ("mean", "lower", "upper"):
        if not all(map(math.isfinite, getattr(band, name))):
            raise ValueError(f"the run overflowed or went non-finite: band column {name}")
    try:
        if fmt == "csv":
            columns = [np.asarray(getattr(band, name)) for name in ("rounds", "mean", "lower", "upper")]
            with atomic_writer(destination) as fh:
                fh.write("round,mean,lower,upper,replicate_count\n")
                fh.flush()
                for start in range(0, len(band.rounds), BAND_CHUNK):
                    rounds, mean, lower, upper = (column[start : start + BAND_CHUNK] for column in columns)
                    fields = [int_text(rounds), ",", float_text(mean), ",", float_text(lower), ",", float_text(upper)]
                    fh.buffer.write(compact(join((len(rounds),), [*fields, f",{band.replicate_count}\n"])))
        elif fmt == "json":
            payload = {"replicate_count": band.replicate_count, "rounds": list(band.rounds),
                       **{name: list(getattr(band, name)) for name in ("mean", "lower", "upper")}}
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


def summarize_final(
    population: Population,
    horizon: int,
    totals: np.ndarray,
    final_averages: np.ndarray,
    final_derivatives: np.ndarray,
) -> list[RunSummary]:
    """The summaries of R runs of ``population``, from their (horizon + 1 x 2 x R) totals of rounds
    0..horizon and their (agents x R) final running averages and derivatives."""
    # the last `window` rounds of 1..horizon, or round 0 alone at horizon 0
    window = trailing_window(max(horizon, 1))
    supply, consumption = (ordered_sum(totals[horizon + 1 - window:]) / window).tolist()
    try:
        values = population.family.values(final_averages)
    except OverflowError:  # (z - z*) ** 2 past the largest float
        raise ValueError("the run overflowed: final_sum_of_utilities is out of range") from None
    s = population.num_suppliers
    utility_sums = zip(*(ordered_sum(part).tolist() for part in (values, values[:s], values[s:])))
    mean_abs_derivatives = (ordered_sum(np.abs(final_derivatives)) / len(final_derivatives)).tolist()
    optima = [u.argmax() for u in population.utilities]
    summaries = []
    for k, (averages, derivatives, sums) in enumerate(
            zip(final_averages.T.tolist(), final_derivatives.T.tolist(), utility_sums)):
        agents = tuple(
            AgentSummary(agent_id, role, avg, optimum, None if optimum is None else abs(avg - optimum), derivative)
            for agent_id, role, avg, optimum, derivative in zip(
                population.agent_ids, population.roles, averages, optima, derivatives)
        )
        summaries.append(RunSummary(horizon, window, supply[k], consumption[k], *sums, mean_abs_derivatives[k], agents))
    return summaries
