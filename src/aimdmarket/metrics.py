"""Run trajectories and confidence bands as columns, summaries, export.

A run is stored as a ``Trajectory``: the (rounds x agents) arrays the
kernel yields (each agent's quantity, running average, utility derivative
and Bernoulli bit) plus per-round totals and signals.  The recorded columns
the kernel does not keep are derived here (``derived_columns``): the
back-off probability and the branch code, from the state entering each
round, its signal and its Bernoulli bit, and utility values and their sums,
evaluated at the running average, which is the quantity the convergence
claims are about; no whole-run copy of them is kept.  A run's summary
(``summarize_final``) exists only as the JSON object that ``summary.json``
and each ``replicate_summaries.json`` entry hold, so this module alone
knows its layout.  Exports are built from the columns, checked finite and
byte-deterministic.  A band is returned as parts of bytes (``band_text``); the
records go to a binary file the caller opens (``scenario.artifact_set``).  A
records export (``RecordsExport``) hands its ``EXPORT_CHUNK``-round chunks to
forked workers through a pipe of chunk tokens while the run is simulated, and
writes each chunk as soon as all before it are written; whichever process
formats a chunk derives its columns, and the bytes do not depend on which one.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .agent import BRANCHES, Population
from .text import compact, float_text, int_text, join, literals
from .utility import ordered_sum

CSV_HEADER = (
    "round,agent_id,role,quantity,running_average,utility_value,utility_derivative,"
    "lambda,bernoulli,branch,total_supply,total_consumption,s_signal,c_signal,sum_of_utilities"
)
# Rounds whose export rows are built at a time, and rounds that ``market.simulate`` advances per
# block, so that chunk k is complete once block k is: memory stays O(EXPORT_CHUNK x agents x
# replicates) whatever the horizon.
EXPORT_CHUNK = 256
# Band rows formatted at a time, so that a long band is never held whole as text or temporaries.
BAND_CHUNK = 8192
# The per-agent float columns of a Trajectory, in export order.
FLOAT_COLUMNS = ("quantity", "running_average", "utility_value", "derivative", "backoff_probability")
# The columns an export checks finite, in the order in which a refusal names the first that is not.
CHECKED_COLUMNS = (*FLOAT_COLUMNS, "total_supply", "total_consumption", "sum_of_utilities")
# The bytes of a chunk token in an export's token pipe.
TOKEN_BYTES = 8
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
    """One run as the kernel yields it: row t holds round t, row 0 the initialization step from
    ``initial_quantity``.  Per-agent arrays are (rounds x agents) in ``population`` order; totals and
    signals have one entry per round.  The other recorded columns are ``derived_columns``."""

    population: Population
    quantity: np.ndarray
    running_average: np.ndarray
    derivative: np.ndarray  # u'(running_average)
    bernoulli: np.ndarray
    total_supply: np.ndarray
    total_consumption: np.ndarray
    supplier_signal: np.ndarray
    consumer_signal: np.ndarray
    initial_quantity: float


@dataclass(frozen=True, eq=False)
class BandSeries:
    """Per-round mean with a symmetric confidence band over replicates, as arrays over rounds 1..n."""

    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    replicate_count: int


def confidence_band(replicates) -> BandSeries:
    """Normal-approximation band at CONFIDENCE_LEVEL over the rows of an (R x rounds) input, R >= 2: mean
    +/- z * s / sqrt(R) per round, s the sample standard deviation (n-1 denominator).  The input is made
    C-ordered, so that both add the replicates in order whatever its layout; numpy refuses a ragged one."""
    data = np.asarray(replicates, dtype=float, order="C")
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("confidence_band needs an (R x rounds) input with R >= 2 replicates")
    mean, r = data.mean(axis=0), len(data)
    half = CONFIDENCE_Z * data.std(axis=0, ddof=1) / math.sqrt(r)
    return BandSeries(mean, mean - half, mean + half, r)


def _distinct_text(values: np.ndarray) -> np.ndarray:
    """``float_text``, formatting each distinct bit pattern (so 0.0 apart from -0.0) once."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return float_text(bits.view(np.float64)).take(index.ravel(), axis=0)


def derived_columns(trajectory: Trajectory, rows: slice) -> dict[str, np.ndarray]:
    """The back-off probability, branch code, utility value and per-round utility sum (in agent
    order) of ``rows``.  The first two are the round step's (``Population.recorded``), from the
    quantity, average and u'(average) entering each round (``initial_quantity`` for all three at
    round 0, as ``market.simulate`` starts), the side signal the agent read and its Bernoulli bit.
    A utility value past the float range is +-inf (``UtilityColumns.values``)."""
    population, n = trajectory.population, len(trajectory.population.agent_ids)
    start = np.full((1, n), trajectory.initial_quantity)
    quantity, avg, marginal = (
        column[rows.start - 1:rows.stop - 1] if rows.start else np.concatenate([start, column[:rows.stop - 1]])
        for column in (trajectory.quantity, trajectory.running_average, trajectory.derivative))
    sides = np.stack([trajectory.supplier_signal[rows], trajectory.consumer_signal[rows]], axis=1)
    signalled = sides.repeat([population.num_suppliers, n - population.num_suppliers], axis=1)
    lam, branch = population.recorded(quantity, avg, marginal, signalled, trajectory.bernoulli[rows])
    values = population.family.values(trajectory.running_average[rows].T).T
    return {"backoff_probability": lam, "branch": branch, "utility_value": values,
            "sum_of_utilities": ordered_sum(values, axis=1)}


def _chunk_rows(fmt: str, rows: slice, columns: list[np.ndarray], branch: np.ndarray, trajectory: Trajectory,
                agents, traces, signals) -> np.ndarray:
    """The export rows of ``rows`` as NUL-padded uint8 text: one CSV row per round and agent, or
    one JSON round object per round (led by a comma after round 1).  ``columns`` are the rows'
    CHECKED_COLUMNS and ``branch`` their branch codes; ``agents``, ``traces`` and ``signals`` are
    the format's literal text by agent, by bernoulli bit and branch code, and by both signals."""
    t = np.arange(rows.start, rows.stop)
    r, n = len(t), len(trajectory.population.agent_ids)
    quantity, average, value, derivative, backoff = (
        (_distinct_text if name in REPEATING_COLUMNS else float_text)(column).reshape(r, n, -1)
        for name, column in zip(FLOAT_COLUMNS, columns)
    )
    # the per-round columns are short: one call, split back into columns
    supply, consumption, total = float_text(np.concatenate(columns[len(FLOAT_COLUMNS):])).reshape(3, r, -1)
    trace = traces.take(trajectory.bernoulli[rows] * len(BRANCHES) + branch, axis=0)
    signals = signals.take(trajectory.supplier_signal[rows] * 2 + trajectory.consumer_signal[rows], axis=0)
    if fmt == "csv":
        tail = join((r,), [supply, ",", consumption, signals, total, "\n"])
        return join((r, n), [int_text(t)[:, None], agents, quantity, ",", average, ",", value, ",", derivative,
                              ",", backoff, trace, tail[:, None]])
    entry = [agents, quantity, ',"running_average":', average, ',"utility_value":', value, ',"utility_derivative":',
             derivative, ',"trace":{"backoff_probability":', backoff, trace]
    lead = np.where(t > 1, ord(","), 0).astype(np.uint8)[:, None]
    head = join((r,), [lead, '{"round":', int_text(t), ',"per_agent":['])
    tail = join((r,), ['],"total_supply":', supply, ',"total_consumption":', consumption, signals,
                       ',"sum_of_utilities":', total, "}"])
    w = sum(len(piece) if isinstance(piece, str) else piece.shape[-1] for piece in entry)
    rows = np.empty((r, head.shape[1] + n * w + tail.shape[1]), np.uint8)
    rows[:, :head.shape[1]], rows[:, rows.shape[1] - tail.shape[1]:] = head, tail
    join((r, n), entry, rows[:, head.shape[1]:rows.shape[1] - tail.shape[1]].reshape(r, n, w))
    return rows


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


def shared_empty(shape: tuple, dtype=float) -> np.ndarray:
    """An array in shared anonymous memory, so that processes forked before it is written read what
    is written; a size that cannot be mapped is refused with numpy's MemoryError message."""
    dtype, count = np.dtype(dtype), math.prod(shape)
    try:
        buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    except (OSError, OverflowError):
        raise MemoryError(f"Unable to allocate {count * dtype.itemsize} bytes for an array with shape {shape} "
                          f"and data type {dtype}") from None
    return np.frombuffer(buffer, dtype, count).reshape(shape)


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
    """A run's records, rounds 1..horizon, formatted while it is simulated and written to ``out``, a
    binary file open for writing.

    CSV has one row per agent per round under ``CSV_HEADER``; JSON holds one object per round (its
    per-agent entries, totals, signals and sum of utilities) in the bytes ``json.dump`` writes, as
    its strings (agent ids, enum values) need no escaping.  The bytes are the same whatever the
    number of CPUs and whichever process formats which chunk.  A run with a non-finite number is
    refused with ValueError naming the first of CHECKED_COLUMNS that is not finite in any chunk.

    ``start(trajectory)`` forks one worker per usable CPU but this one (at most one per chunk but
    one), on platforms with ``fork``; the trajectory's columns must be in memory shared with them,
    as ``market.run`` allocates them, if they are written after ``start``.  ``ready(rounds)``
    hands out every chunk whose rounds lie below ``rounds`` through one pipe of chunk tokens.
    Each worker writes the chunks it takes into its own unnamed temporary file, notes (worker,
    offset, length, mask of non-finite columns) in a chunk table in shared memory and announces each
    on a second pipe, which ``ready`` drains.  ``commit()`` writes each chunk once all before it are
    written, a worker's from its file and its own from memory: it formats the tokens left, then the
    chunks never sent, pausing while it holds two beyond the written prefix.  Whichever process
    formats a chunk derives its columns and checks them finite.  Leaving the ``with`` block kills
    and reaps any worker left, so that an export that fails, or that is never committed, leaves no
    process or file behind.
    """

    def __init__(self, fmt: str, out):
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown export format: {fmt}")
        self.fmt, self._out = fmt, out
        self._fds = {}  # "take" and "give", the token pipe's ends; "done" and "announce", the announcement pipe's
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
        self._sent, self._announced = 0, set()  # chunks handed out through the pipe; chunks announced
        self._table = shared_empty((self._count, 4), np.int64)  # per chunk: worker, offset, length, mask
        workers = max(min(_usable_cpus(), self._count) - 1, 0)
        self._fds["take"], self._fds["give"] = os.pipe()
        self._fds["done"], self._fds["announce"] = os.pipe()
        os.set_blocking(self._fds["give"], False)
        self._files = [tempfile.TemporaryFile() for _ in range(workers)]
        for w in range(workers):
            self._workers.append(self._fork(w))
        os.close(self._fds.pop("announce"))  # the announcements end once every worker has exited

    def _fork(self, w: int) -> int:
        """Fork worker ``w`` and return its pid.  The worker formats into file ``w`` the chunks it
        takes from the token pipe until the tokens end, notes each in the table, then announces it.
        It leaves through ``os._exit`` on every path, status 0 once the tokens end."""
        pid = os.fork()
        if pid:
            return pid
        status, file = 1, self._files[w]
        try:
            os.close(self._fds["give"])  # the tokens end once the parent has closed its end too
            for k in iter(lambda: _take(self._fds["take"]), None):
                text, mask = self._format(k)
                file.write(text)
                file.flush()  # before the announcement, after which the parent may read the bytes
                self._table[k] = w, file.tell() - len(text), len(text), mask
                os.write(self._fds["announce"], k.to_bytes(TOKEN_BYTES, "little"))
            status = 0
        finally:
            os._exit(status)

    def ready(self, rounds: int) -> None:
        """Hand out every chunk whose rounds all lie below ``rounds``, and note the chunks announced."""
        ready = self._count if rounds >= self._rounds else rounds // EXPORT_CHUNK
        try:
            while self._sent < ready:
                os.write(self._fds["give"], self._sent.to_bytes(TOKEN_BYTES, "little"))
                self._sent += 1
        except BlockingIOError:
            pass  # the pipe is full: the chunks not sent are left to commit
        self._drain(wait=False)

    def _drain(self, wait: bool) -> bool:
        """Note the chunks announced, waiting for one if ``wait``; False at the announcements' end."""
        os.set_blocking(self._fds["done"], wait)
        try:
            announced = os.read(self._fds["done"], 1 << 16)  # a full pipe of the default size
        except BlockingIOError:
            return True
        self._announced.update(np.frombuffer(announced, "<i8").tolist())
        return bool(announced)

    def commit(self) -> None:
        """Write the records to the open file as the chunks finish and reap the workers.  A run with a
        non-finite chunk is refused by the first of CHECKED_COLUMNS that is not finite in any chunk."""
        mine = chain(iter(lambda: _take(self._fds["take"]), None), range(self._sent, self._count))
        held, k, out = {}, 0, self._out  # this process's chunks not yet written; the next chunk to write; the file
        os.close(self._fds.pop("give"))  # no token follows: each process leaves its loop once the pipe is drained
        out.write(CSV_HEADER.encode() + b"\n" if self.fmt == "csv" else b"[")
        while k < self._count:
            if k in held or k in self._announced:
                out.write(held.pop(k, b""))
                w, offset, length, _ = self._table[k].tolist()  # length 0 if this process's
                while length:  # one pread returns at most 0x7ffff000 bytes on Linux
                    text = os.pread(self._files[w].fileno(), length, offset)
                    offset, length = offset + out.write(text), length - len(text)
                k += 1
            elif len(held) < 2 and (j := next(mine, None)) is not None:
                held[j], self._table[j, 3] = self._format(j)
            elif not self._drain(wait=True):
                break  # every worker has exited without announcing chunk k: the reap names the failure
        failed = [code for code in self._reap() if code]
        if failed:
            raise OSError(f"an export worker exited with status {failed[0]}")
        mask = int(np.bitwise_or.reduce(self._table[:, 3]))
        if mask:
            name = CHECKED_COLUMNS[(mask & -mask).bit_length() - 1]
            raise ValueError(f"the run overflowed or went non-finite: records column {name}")
        if self.fmt == "json":
            out.write(b"]\n")

    def _format(self, k: int) -> tuple[bytes, int]:
        """Chunk ``k``'s bytes and its mask, with bit i set if CHECKED_COLUMNS[i] is not finite; no
        bytes if any bit is set."""
        # the k-th EXPORT_CHUNK rounds, without round 0, so that chunk k is complete once block k of
        # market.simulate is
        rows = slice(max(k * EXPORT_CHUNK, 1), min((k + 1) * EXPORT_CHUNK, self._rounds))
        derived = derived_columns(self._trajectory, rows)
        columns = [derived[name] if name in derived else getattr(self._trajectory, name)[rows]
                   for name in CHECKED_COLUMNS]
        mask = sum(1 << i for i, column in enumerate(columns) if not np.isfinite(column).all())
        if mask:
            return b"", mask
        return compact(_chunk_rows(self.fmt, rows, columns, derived["branch"], self._trajectory, *self._text)), 0

    def _reap(self) -> list[int]:
        """Wait for every worker; return their exit codes (-N for signal N)."""
        codes = []
        while self._workers:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(self._workers[0], 0)[1]))
            self._workers.pop(0)
        return codes


def band_text(band: BandSeries, fmt: str) -> Iterator[bytes]:
    """The bytes of a BandSeries as CSV or JSON, in parts to write in order, each made as it is taken; a
    non-finite band is refused here, before any part is made, naming its first non-finite column."""
    columns = dict(rounds=np.arange(1, len(band.mean) + 1), mean=band.mean, lower=band.lower, upper=band.upper)
    for name in ("mean", "lower", "upper"):
        if not np.isfinite(columns[name]).all():
            raise ValueError(f"the run overflowed or went non-finite: band column {name}")
    if fmt == "csv":  # BAND_CHUNK rows a part
        chunks = ([column[start : start + BAND_CHUNK] for column in columns.values()]
                  for start in range(0, len(band.mean), BAND_CHUNK))
        rows = (join((len(rounds),), [int_text(rounds), ",", float_text(mean), ",", float_text(lower), ",",
                                      float_text(upper), f",{band.replicate_count}\n"])
                for rounds, mean, lower, upper in chunks)
        return chain([b"round,mean,lower,upper,replicate_count\n"], map(compact, rows))
    if fmt == "json":  # the bytes of json.dumps with separators (",", ":"), a column's list a part
        lists = (f',"{name}":{json.dumps(column.tolist(), separators=(",", ":"))}' for name, column in columns.items())
        return chain([b'{"replicate_count":%d' % band.replicate_count], map(str.encode, lists), [b"}\n"])
    raise ValueError(f"unknown export format: {fmt}")


def trailing_window(rounds: int) -> int:
    """Length of the "lingers around" window over ``rounds`` recorded rounds."""
    return min(rounds, max(MIN_TRAILING_WINDOW, math.ceil(0.1 * rounds)))


def summarize_final(
    population: Population,
    horizon: int,
    totals: np.ndarray,
    final_averages: np.ndarray,
    final_derivatives: np.ndarray,
) -> list[dict]:
    """The summaries of R runs of ``population``, from their (horizon + 1 x 2 x R) totals of rounds
    0..horizon and their (agents x R) final running averages and derivatives, each as the JSON object
    that ``summary.json`` and each ``replicate_summaries.json`` entry hold: an agent of a utility with
    no finite optimum has ``optimum`` and ``distance_to_optimum`` null."""
    # the last `window` rounds of 1..horizon, or round 0 alone at horizon 0
    window = trailing_window(max(horizon, 1))
    supply, consumption = (ordered_sum(totals[horizon + 1 - window:]) / window).tolist()
    values = population.family.values(final_averages)
    s = population.num_suppliers
    utility_sums = zip(*(ordered_sum(part).tolist() for part in (values, values[:s], values[s:])))
    mean_abs_derivatives = (ordered_sum(np.abs(final_derivatives)) / len(final_derivatives)).tolist()
    optima = [u.optimum for u in population.utilities]
    summaries = []
    for k, (averages, derivatives, (total, supplier, consumer)) in enumerate(
            zip(final_averages.T.tolist(), final_derivatives.T.tolist(), utility_sums)):
        agents = [{"agent_id": agent_id, "role": role.value, "final_running_average": avg, "optimum": optimum,
                   "distance_to_optimum": None if optimum is None else abs(avg - optimum),
                   "final_derivative": derivative}
                  for agent_id, role, avg, optimum, derivative in zip(
                      population.agent_ids, population.roles, averages, optima, derivatives)]
        summaries.append({"final_round": horizon, "window": window, "trailing_mean_supply": supply[k],
                          "trailing_mean_consumption": consumption[k], "final_sum_of_utilities": total,
                          "final_supplier_utility_sum": supplier, "final_consumer_utility_sum": consumer,
                          "final_mean_abs_derivative": mean_abs_derivatives[k], "agents": agents})
    return summaries
