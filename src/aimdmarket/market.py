"""The market center and the simulation kernel that both run drivers use.

Each round the center compares last round's total supply with total
consumption and broadcasts at most one one-bit signal: the supplier side
is signaled on excess supply, the consumer side on excess consumption,
nobody on an exact tie.  All agents then step synchronously.  Randomness
is organized as one independent stream per agent with one uniform draw
per round, so results do not depend on any execution schedule.

``simulate`` advances an (agents x replicates) state, one replicate per
seed, in blocks of ``metrics.EXPORT_CHUNK`` rounds, so that each block
completes one records chunk; each stream fills its row of a
stream-major (agents x replicates x rounds) draw buffer in place.  Its
per-round loop walks views built once per call and makes only the numpy
calls of the round's arithmetic: one comparison of last round's totals
(``_excess_sides``) writes the two side signals, one ``take`` spreads them
to the agents, the round step (``Population.bind_step``) reads its sample
counts as 0-d views, and ``np.add.accumulate`` writes each side's partial
sums into a (rounds x agents x replicates) buffer, whose rows s - 1 and
agents - 1 are the totals, read in place as one strided view.
``run`` copies each block's quantities, averages, derivatives, Bernoulli bits,
totals and signals into the columns of a ``metrics.Trajectory``, which it keeps
in shared anonymous memory; lambda and the branch codes are derived from those
in ``metrics``, not here.  Given a ``metrics.RecordsExport``, it starts the
export's workers before the first round and hands them each block's rounds once
they are copied, so the records are formatted while the run is simulated.
``replicate_series`` writes each block's mean supplier u' into one C-ordered
(replicates x horizon) array.  Both copy the totals of every block into one
whole-run array, from which ``summarize_final`` takes the trailing-window means.
Every float sum outside the round loop is ``utility.ordered_sum``, in the
loop's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .agent import Population
from .metrics import EXPORT_CHUNK, RecordsExport, Trajectory, shared_empty, summarize_final
from .scenario import MarketConfig, ScenarioSpec, validate_config, validate_scenario
from .utility import ordered_sum


@dataclass(frozen=True, eq=False)
class RunResult:
    """The trajectory's columns (rounds 0..horizon) and its summary, the object ``summary.json`` holds."""

    trajectory: Trajectory
    summary: dict


class Block(NamedTuple):
    """Rounds ``first``.. of ``simulate``: per-agent arrays are (rounds x agents x replicates) and
    per-side arrays (rounds x 2 x replicates), views of buffers that the next block overwrites."""

    first: int
    quantity: np.ndarray
    running_average: np.ndarray
    derivative: np.ndarray  # u'(running_average)
    bernoulli: np.ndarray
    totals: np.ndarray  # total supply, total consumption
    signals: np.ndarray  # supplier signal, consumer signal: each agent read its side's


def _excess_sides(flip_semantics: bool):
    """The signal rule, as a ufunc of last round's (supply, consumption) totals and the same totals reversed,
    along the first axis: it gives the (supplier, consumer) signals, the side in excess, neither on a tie;
    ``flip_semantics`` signals the side in deficit instead, for comparison studies."""
    return np.less if flip_semantics else np.greater


def agent_rng_streams(seed: int, num_suppliers: int, num_consumers: int):
    """One PCG64 stream per agent, keyed on (seed, role, index).

    Each stream is consumed at exactly one draw per round, so the round-t
    variate of an agent is fixed by the seed alone.
    """
    return tuple(
        [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(role, i))) for i in range(count)]
        for role, count in enumerate((num_suppliers, num_consumers))
    )


def simulate(population: Population, config: MarketConfig, seeds: Sequence[int]) -> Iterator[Block]:
    """Yield rounds 0..horizon of one market per seed, in lockstep, in
    blocks of ``EXPORT_CHUNK`` rounds (the last one shorter), from buffers
    allocated once per call.

    Round 0 is the initialization step from ``config.initial_quantity``:
    the round step after a tie, with no draw.  Replicate k draws from the
    streams of ``seeds[k]``, so it equals a single-seed run with that seed.
    """
    shape, s = (len(population.agent_ids), len(seeds)), population.num_suppliers
    step, excess = population.bind_step(len(seeds)), _excess_sides(config.flip_signal_semantics)
    rows = min(EXPORT_CHUNK, config.horizon + 1)
    columns = [np.empty((rows, *shape), dtype) for dtype in [float] * 3 + [bool]]
    signals = np.empty((rows, 2, len(seeds)), dtype=bool)
    # each side's partial sums in agent order: the (rounds x 2 x replicates) totals are rows s - 1 and agents - 1
    partial_sums = np.empty((rows, *shape))
    totals = partial_sums[:, s - 1::shape[0] - s]
    draws = np.zeros((*shape, rows))  # stream-major: each stream fills its own rounds in place
    fills = [(rng.random, draws[i, k]) for k, seed in enumerate(seeds)
             for i, rng in enumerate(sum(agent_rng_streams(seed, config.num_suppliers, config.num_consumers), []))]
    side_of = np.repeat([0, 1], [s, shape[0] - s])  # agent i reads the signal signals[t, side_of[i]]
    signalled, scratch = np.empty(shape, dtype=bool), (np.empty(shape), np.empty(shape, dtype=bool))
    # the average entering round t holds t samples (rounds 0..t-1); the step reads t and t + 1 as 0-d views of
    # counts, which each block sets to its rounds, so that its ufuncs convert no Python number
    block_rounds, counts = np.arange(rows + 1, dtype=float), np.empty(rows + 1)
    # each round's views, built once: the step's `after` and the first three of it, the next round's `before`;
    # its signals, its draws, each side's quantities and partial sums, its totals, which the next round's
    # signals compare, also reversed, and its sample counts
    views = [(*round_views, (counts[b, ...], counts[b + 1, ...])) for b, round_views in enumerate(zip(
        zip(*columns), (row[:3] for row in zip(*columns)), signals, np.moveaxis(draws, -1, 0), columns[0][:, :s],
        columns[0][:, s:], partial_sums[:, :s], partial_sums[:, s:], totals, totals[:, ::-1]))]
    accumulate = np.add.accumulate
    # round 0 follows a tie, so nobody is signalled and u'(average) goes unread
    start = np.full(shape, float(config.initial_quantity))
    before, (last, last_reversed) = (start, start, start), [np.zeros((2, len(seeds)))] * 2
    for first in range(0, config.horizon + 1, EXPORT_CHUNK):
        block, skip = min(EXPORT_CHUNK, config.horizon + 1 - first), int(first == 0)  # round 0 draws nothing
        for fill, stream in fills:
            fill(out=stream[skip:block])
        np.add(block_rounds, first, counts)
        # the round step's lambda divides by averages of 0; the caller's state holds across the yield
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for (row, next_before, signal, draw, supply, consumption, supplier_sums, consumer_sums, total,
                 reversed_total, samples) in views[:block]:
                excess(last, last_reversed, signal)
                signal.take(side_of, 0, signalled, "clip")  # in range: unlike "raise", "clip" writes no copy
                step(before, row, samples, signalled, draw, scratch)
                # agent order, not np.sum's pairwise order: the totals decide the signals
                accumulate(supply, 0, None, supplier_sums)
                accumulate(consumption, 0, None, consumer_sums)
                before, last, last_reversed = next_before, total, reversed_total
        yield Block(first, *(column[:block] for column in (*columns, totals, signals)))


def _validate(config: MarketConfig, scenario: ScenarioSpec) -> None:
    violations = validate_config(config) + validate_scenario(scenario, config)
    if violations:
        raise ValueError("invalid run inputs: " + "; ".join(violations))


def run(config: MarketConfig, scenario: ScenarioSpec, *, records: Optional[RecordsExport] = None) -> RunResult:
    """Initialize agents, advance ``horizon`` rounds, return the trajectory.

    Invalid configs or scenarios are rejected before any round executes.  With ``records``, the
    export is started before the first round and handed each block's rounds once they are copied.
    """
    _validate(config, scenario)
    population = Population.build(config, scenario)
    rounds, agents = config.horizon + 1, len(population.agent_ids)
    # a Block's columns for one replicate: per agent (rounds x agents), per side (rounds x 2)
    columns = [shared_empty((rounds, width), dtype)
               for width, dtype in [(agents, float)] * 3 + [(agents, bool), (2, float), (2, bool)]]
    quantity, running_average, derivative, bernoulli, totals, signals = columns
    trajectory = Trajectory(population, quantity, running_average, derivative, bernoulli, *totals.T, *signals.T,
                            float(config.initial_quantity))
    if records is not None:
        records.start(trajectory)
    for block in simulate(population, config, [config.seed]):
        rows = slice(block.first, block.first + len(block.totals))
        for column, value in zip(columns, block[1:]):
            column[rows] = value[..., 0]  # replicate 0
        if records is not None:
            records.ready(rows.stop)
    (summary,) = summarize_final(population, config.horizon, totals[..., None], running_average[-1:].T,
                                 derivative[-1:].T)
    return RunResult(trajectory, summary)


def replicate_series(
    config: MarketConfig, scenario: ScenarioSpec, replicates: int
) -> tuple[np.ndarray, list[dict]]:
    """Run ``replicates`` seeds (seed+0..R-1) against one fixed scenario.

    Returns a C-ordered (replicates x horizon) array whose row k is replicate k's mean supplier
    utility derivative over rounds 1..horizon, plus each run's summary, equal to those of ``run``
    with each seed.  All replicates advance together in one ``simulate`` call; replicate k
    depends only on (config, k), so no result depends on the others.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _validate(config, scenario)
    population, s = Population.build(config, scenario), config.num_suppliers
    series, totals = np.empty((replicates, config.horizon)), np.empty((config.horizon + 1, 2, replicates))
    for block in simulate(population, config, [config.seed + k for k in range(replicates)]):
        # rounds 1.. only, in agent order: column t - 1 holds round t
        skip, stop = int(block.first == 0), block.first + len(block.totals)
        series.T[block.first + skip - 1:stop - 1] = ordered_sum(block.derivative[skip:, :s], axis=1) / s
        totals[block.first:stop] = block.totals
    return series, summarize_final(population, config.horizon, totals, block.running_average[-1], block.derivative[-1])
