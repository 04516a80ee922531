"""Run trajectories as columns, convergence detection, confidence bands, export.

A run is stored as a ``Trajectory``: (rounds x agents) arrays of each
agent's quantity, running average, utility derivative, back-off
probability, Bernoulli bit and branch, plus per-round totals and
signals.  Utility values and derivatives are evaluated at the running
average, which is the quantity the convergence claims are about.
Exports are written straight from the columns, checked finite and
written atomically, and are byte-deterministic: repeated export of the
same run is identical.  A records export (``RecordsExport``) hands its
256-round chunks to forked workers through a pipe of chunk tokens, while
the run is simulated or at once, and writes them in chunk order; the bytes
do not depend on which process formats which chunk.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
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
# The per-agent float columns of a Trajectory, in export order.
FLOAT_COLUMNS = ("quantity", "running_average", "utility_value", "derivative", "backoff_probability")
# The columns an export checks finite, in the order in which a refusal names the first that is not.
CHECKED_COLUMNS = (*FLOAT_COLUMNS, "total_supply", "total_consumption", "sum_of_utilities")
# An export's pipe messages: a chunk token, and a worker's (chunk, worker, offset, length, mask).
TOKEN_BYTES, RESULT_BYTES = 8, 5 * 8
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
        """``utility_value`` and ``sum_of_utilities`` (in agent order) of the whole run.  An export does
        not read them: whichever process formats a chunk computes that chunk's."""
        return _utility_rows(self.population.family, self.running_average)

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


def _utility_rows(family, avg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u(avg) of (rounds x agents) running averages, and each round's sum in agent order."""
    values = family.values(avg.T).T
    return values, ordered_sum(values, axis=1)


def _chunk_rounds(k: int, rounds: int) -> slice:
    """The exported rounds of chunk ``k`` of a ``rounds``-round trajectory: the k-th EXPORT_CHUNK
    rounds, without round 0, so that chunk k is complete once block k of ``market.simulate`` is."""
    return slice(max(k * EXPORT_CHUNK, 1), min((k + 1) * EXPORT_CHUNK, rounds))


def _chunk_columns(trajectory: Trajectory, rows: slice) -> tuple[list[np.ndarray], int]:
    """The CHECKED_COLUMNS of ``rows``, the utility values and their sums computed here, and a mask
    with bit i set if column i is not finite (a utility value past the float range included)."""
    try:
        values, sums = _utility_rows(trajectory.population.family, trajectory.running_average[rows])
    except OverflowError:  # a square past the largest float
        values = np.full(trajectory.running_average[rows].shape, math.inf)
        sums = values[:, 0]
    computed = {"utility_value": values, "sum_of_utilities": sums}
    columns = [computed[name] if name in computed else getattr(trajectory, name)[rows] for name in CHECKED_COLUMNS]
    return columns, sum(1 << i for i, column in enumerate(columns) if not np.isfinite(column).all())


def _chunk_rows(fmt: str, rows: slice, columns: list[np.ndarray], trajectory: Trajectory, agents, traces,
                signals) -> np.ndarray:
    """The export rows of ``rows`` as NUL-padded uint8 text: one CSV row per round and agent, or
    one JSON round object per round (led by a comma after round 1).  ``columns`` are the rows'
    CHECKED_COLUMNS; ``agents``, ``traces`` and ``signals`` are the format's literal text by agent,
    by bernoulli bit and branch code, and by both signals."""
    t = np.arange(rows.start, rows.stop)
    r, n = len(t), len(trajectory.population.agent_ids)
    quantity, average, value, derivative, backoff = (
        (_distinct_text if name in REPEATING_COLUMNS else float_text)(column).reshape(r, n, -1)
        for name, column in zip(FLOAT_COLUMNS, columns)
    )
    # the per-round columns are short: one call, split back into columns
    supply, consumption, total = float_text(np.concatenate(columns[len(FLOAT_COLUMNS):])).reshape(3, r, -1)
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


def _literal_text(population: Population, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The format's text before each agent's quantity, of the trace fields (by bernoulli bit and
    branch code) and of the signals (by 2 s + c)."""
    ids, roles = population.agent_ids, [role.value for role in population.roles]
    if fmt == "csv":
        return (literals([f",{agent_id},{role}," for agent_id, role in zip(ids, roles)]),
                literals([f",{bit},{b.value}," for bit in (0, 1) for b in BRANCHES]),
                literals([f",{s},{c}," for s in (0, 1) for c in (0, 1)]))
    return (literals([f'{"," if k else ""}{{"agent_id":"{agent_id}","role":"{role}","quantity":'
                      for k, (agent_id, role) in enumerate(zip(ids, roles))]),
            literals([f',"bernoulli":{bit},"branch":"{b.value}"}}}}' for bit in (0, 1) for b in BRANCHES]),
            literals([f',"signals":{{"supplier_signal":{s},"consumer_signal":{c}}}' for s in (0, 1) for c in (0, 1)]))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _take(tokens: int) -> Optional[int]:
    """The next chunk from the token pipe, or None once the pipe is drained and closed.  Every token
    is written whole and read whole, so processes that share the pipe take each chunk once, in order."""
    token = os.read(tokens, TOKEN_BYTES)
    return int.from_bytes(token, "little") if token else None


class RecordsExport:
    """``export_run`` in steps, so that a run's records are formatted while it is simulated.

    ``start(trajectory)`` forks one worker per usable CPU but this one (at most one per chunk but
    one), on platforms with ``fork``; the trajectory's columns must be in memory shared with them,
    as ``market.run`` allocates them, if they are written after ``start``.  ``ready(rounds)``
    hands out every chunk whose rounds lie below ``rounds`` through one pipe of chunk tokens; each
    worker formats the chunks it takes into its own unnamed temporary file and reports where they
    are.  ``commit()`` writes the destination in chunk order: this process formats the chunks that
    are left as it goes, holding at most one, and copies the workers' by range; then it reaps the
    workers.  Whichever process formats a chunk computes its utility values and checks it finite.
    Leaving the ``with`` block kills and reaps any worker left, so that an export that fails, or
    that is never committed, leaves no process or file behind.
    """

    def __init__(self, fmt: str, destination):
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown export format: {fmt}")
        self.fmt, self.destination = fmt, Path(destination)
        self._fds = {}  # "take" and "give", the token pipe's ends, and "results", read here
        self._workers, self._files = [], []  # pids not yet reaped; each worker's temporary file

    def __enter__(self) -> "RecordsExport":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._workers:
            from signal import SIGKILL  # imported only by an export that failed or was abandoned

            for pid in self._workers:
                os.kill(pid, SIGKILL)
            self._reap()
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()
        for file in self._files:
            file.close()

    def start(self, trajectory: Trajectory) -> None:
        self._trajectory, self._text = trajectory, _literal_text(trajectory.population, self.fmt)
        self._rounds = len(trajectory.total_supply)
        self._count = -(-self._rounds // EXPORT_CHUNK) if self._rounds > 1 else 0
        self._sent = 0  # chunks handed out, through the pipe or in commit
        workers = min(_usable_cpus(), self._count) - 1
        if workers < 1:
            return
        try:
            self._fds["take"], self._fds["give"] = os.pipe()
            os.set_blocking(self._fds["give"], False)
            self._fds["results"], report = os.pipe()
            try:
                self._files = [tempfile.TemporaryFile() for _ in range(workers)]
                for w in range(workers):
                    self._workers.append(self._fork(w, report))
            finally:
                os.close(report)  # so that the results end once every worker has left
        except OSError as exc:
            raise OSError(f"cannot write run export to {self.destination}: {exc}") from exc

    def _fork(self, w: int, report: int) -> int:
        """Fork worker ``w``, which formats the chunks it takes into file ``w`` and writes (chunk,
        w, offset, length, mask) to ``report`` for each; return its pid.  It leaves through
        ``os._exit`` on every path, status 0 once the tokens end."""
        pid = os.fork()
        if pid:
            return pid
        status = 1
        try:
            os.close(self._fds["give"])  # the tokens end once the parent has closed its end too
            file, offset = self._files[w], 0
            while (k := _take(self._fds["take"])) is not None:
                text, mask = self._format(k)
                file.write(text)
                file.flush()
                os.write(report, np.array([k, w, offset, len(text), mask], np.int64).tobytes())
                offset += len(text)
            status = 0
        finally:
            os._exit(status)

    def ready(self, rounds: int) -> None:
        """Hand out every chunk whose rounds all lie below ``rounds``."""
        if "give" not in self._fds:
            return
        ready = self._count if rounds >= self._rounds else rounds // EXPORT_CHUNK
        try:
            while self._sent < ready:
                os.write(self._fds["give"], self._sent.to_bytes(TOKEN_BYTES, "little"))
                self._sent += 1
        except BlockingIOError:
            pass  # the pipe is full: the chunks not sent are left to commit

    def commit(self) -> Path:
        """Write the destination atomically and reap the workers; return the destination."""
        if "give" in self._fds:
            os.close(self._fds.pop("give"))  # no token follows: each worker leaves once the pipe is drained
        try:
            with atomic_writer(self.destination) as fh:
                fh.write(CSV_HEADER + "\n" if self.fmt == "csv" else "[")
                fh.flush()  # the rows are bytes, written under the text layer
                located, own = {}, None  # workers' chunks not yet written: (file, offset, length); (chunk, text)
                for k in range(self._count):
                    while k not in located and (own is None or own[0] != k):
                        if own is not None or (j := self._claim()) is None:
                            self._receive(located)
                            continue
                        text, mask = self._format(j)
                        if mask:
                            raise self._refusal(mask)
                        own = j, text
                    if k in located:
                        w, offset, length = located.pop(k)
                        fh.buffer.write(os.pread(self._files[w].fileno(), length, offset))
                    else:
                        fh.buffer.write(own[1])
                        own = None
                if self.fmt == "json":
                    fh.write("]\n")
                self._join()
        except OSError as exc:
            raise OSError(f"cannot write run export to {self.destination}: {exc}") from exc
        return self.destination

    def _format(self, k: int) -> tuple[bytes, int]:
        """Chunk ``k``'s bytes and its mask of non-finite columns; no bytes if any is set."""
        rows = _chunk_rounds(k, self._rounds)
        columns, mask = _chunk_columns(self._trajectory, rows)
        if mask:
            return b"", mask
        return compact(_chunk_rows(self.fmt, rows, columns, self._trajectory, *self._text)), 0

    def _claim(self) -> Optional[int]:
        """The next chunk for this process: from the token pipe while it holds any, then the chunks
        never sent; None once every chunk is taken."""
        if "take" in self._fds:
            k = _take(self._fds["take"])
            if k is not None:
                return k
            os.close(self._fds.pop("take"))
        if self._sent == self._count:
            return None
        self._sent += 1
        return self._sent - 1

    def _receive(self, located: dict) -> None:
        """Wait for the next chunk a worker formatted and note where it is."""
        message = os.read(self._fds["results"], RESULT_BYTES)
        if not message:  # every worker has left, one of them without the chunk this process waits for
            self._join()
            raise OSError("an export worker left a chunk unformatted")
        k, w, offset, length, mask = np.frombuffer(message, np.int64).tolist()
        if mask:
            raise self._refusal(mask)
        located[k] = w, offset, length

    def _refusal(self, mask: int) -> ValueError:
        """The refusal of a run with a non-finite chunk, of mask ``mask``: it names the first of
        CHECKED_COLUMNS that is not finite in any chunk."""
        for k in range(self._count):
            mask |= _chunk_columns(self._trajectory, _chunk_rounds(k, self._rounds))[1]
        name = CHECKED_COLUMNS[(mask & -mask).bit_length() - 1]
        return ValueError(f"the run overflowed or went non-finite: records column {name}")

    def _reap(self) -> list[int]:
        """Wait for every worker; return their exit codes (-N for signal N)."""
        codes = []
        while self._workers:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(self._workers[0], 0)[1]))
            self._workers.pop(0)
        return codes

    def _join(self) -> None:
        """Reap every worker; raise OSError if any failed."""
        failed = [code for code in self._reap() if code]
        if failed:
            raise OSError(f"an export worker exited with status {failed[0]}")


def export_run(trajectory: Trajectory, fmt: str, destination) -> Path:
    """Write rounds 1..horizon as CSV (one row per agent per round) or JSON.

    The CSV schema is fixed (see ``CSV_HEADER``); JSON holds one object per round (its
    per-agent entries, totals, signals and sum of utilities) in the bytes ``json.dump`` writes:
    its strings (agent ids, enum values) need no escaping, and a run with a non-finite number
    is refused with ValueError naming the first non-finite column.  Failures carry the
    destination path and leave no partial file.

    This is ``RecordsExport`` with every chunk ready at once: the chunks are formatted on up to
    one process per usable CPU, and the bytes are the same whatever the number of CPUs and
    whichever process formats which chunk.
    """
    with RecordsExport(fmt, destination) as records:
        records.start(trajectory)
        records.ready(len(trajectory.total_supply))
        return records.commit()


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
