"""The market center and the simulation kernel that both run drivers use.

Each round the center compares last round's total supply with total
consumption and broadcasts at most one one-bit signal: the supplier side
is signaled on excess supply, the consumer side on excess consumption,
nobody on an exact tie.  All agents then step synchronously.  Each agent
draws one uniform per round from its own stream, numpy's PCG64 stream
keyed on (seed, role, index), all of them seeded in one array pass
(``agent_rng_streams``), so results do not depend on any schedule.

``simulate`` advances an (agents x replicates) state, one replicate per
seed, in blocks of ``metrics.EXPORT_CHUNK`` rounds, each of which
completes one records chunk.  Each stream fills its row of a stream-major
(agents x replicates x rounds) draw buffer in place, once per block; the
block copies the draws round-major into the partial-sums buffer, whose
row each round reads before it overwrites it.  The per-round loop walks views
built once per call and makes only the numpy calls of the round's
arithmetic: one comparison of last round's totals writes both side
signals, one ``take`` spreads them to the agents, the round step
(``Population.bind_step``) reads its sample counts as 0-d views, and
``np.add.accumulate`` writes each side's partial sums, whose rows s - 1
and agents - 1 are the totals, read in place.  A block whose entering
averages cannot fall below EPS_AVG within it runs the step without its
EPS_AVG guard.
``run`` copies each block into the columns of a ``metrics.Trajectory`` in
shared memory and, given a ``metrics.RecordsExport``, hands the block's
rounds to its workers, so the records are formatted while the run is
simulated.  ``replicate_series`` writes each block's mean supplier u'
into one C-ordered (replicates x horizon) array.  Both keep every block's
totals for ``summarize_final``'s trailing-window means.  Every float sum
outside the round loop is ``utility.ordered_sum``, in the loop's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .agent import EPS_AVG, Population
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


# numpy's SeedSequence (NEP 19): each hash's initial constant and multiplier, for mixing and for output,
# and the multipliers of its mix
INIT_A, MULT_A, INIT_B, MULT_B, MIX_MULT_L, MIX_MULT_R = (
    0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715)


def _hash_constants(init: int, mult: int, first: int) -> np.ndarray:
    """SeedSequence's running hash constant before hash ``first`` and after it and the next 7: hash j xors
    its word with init * mult**j and multiplies it by init * mult**(j + 1), mod 2**32."""
    return np.array([init * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(first, first + 9)], np.uint32)


def _hash(words, constants: np.ndarray) -> np.ndarray:
    """``words`` hashed by each constant but the last of ``constants``, along their first axis; uint32
    arithmetic wraps mod 2**32, as SeedSequence's does."""
    words = (words ^ constants[:-1]) * constants[1:]
    return words ^ words >> 16


def agent_rng_streams(seeds: Sequence[int], num_suppliers: int, num_consumers: int) -> list:
    """One PCG64 stream per agent and seed, keyed on (seed, role, index): the stream of agent a (suppliers
    first) and ``seeds[k]`` is at position a * len(seeds) + k, and draws what
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(role, index)))`` draws.

    Each stream is consumed at exactly one draw per round, so the round-t
    variate of an agent is fixed by the seed alone.  Numpy mixes a seed's
    32-bit words, at least 4 (zeros pad a short seed), into a pool of 4
    words with 4 hashes per word, then the spawn key's words.  So each
    seed's pool is numpy's own ``SeedSequence(seed).pool``, and the role and
    index words of every agent are mixed in, and the state hashed out, in one
    array pass, by the hash constants that follow the seed's words.  An
    index is one word, as every index below 2**32 is.
    """
    role = np.repeat(np.array([0, 1], np.uint32), [num_suppliers, num_consumers])[:, None]
    index = np.concatenate([np.arange(num_suppliers), np.arange(num_consumers)]).astype(np.uint32)[:, None]
    pool = np.array([np.random.SeedSequence(seed).pool for seed in seeds], np.uint32).T[:, None]  # (4 x 1 x R)
    # the hashes each pool has had: 4 per seed word, of which there are 4 below 2**128
    hashed = [4 * max(4, -(-seed.bit_length() // 32)) for seed in seeds]
    following = {n: _hash_constants(INIT_A, MULT_A, n) for n in set(hashed)}
    constants = np.array([following[n] for n in hashed]).T[:, None]  # (9 x 1 x R)
    for word, first in ((role, 0), (index, 4)):  # each word into every pool word
        pool = pool * MIX_MULT_L - _hash(word, constants[first:first + 5]) * MIX_MULT_R
        pool ^= pool >> 16
    state = _hash(pool[[0, 1, 2, 3] * 2], _hash_constants(INIT_B, MULT_B, 0)[:, None, None])
    # eight 32-bit words per lane, read as four little-endian 64-bit words, lanes in (agent, seed) order
    words = np.moveaxis(state, 0, -1).astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)

    # defined here, so that only a run that builds streams imports numpy.random
    class StateWords(np.random.bit_generator.ISeedSequence):
        """A seed sequence that returns its lane's precomputed state words: all that PCG64 asks of one."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(StateWords(lane))) for lane in words.reshape(-1, 4)]


def simulate(population: Population, config: MarketConfig, seeds: Sequence[int]) -> Iterator[Block]:
    """Yield rounds 0..horizon of one market per seed, in lockstep, in
    blocks of ``EXPORT_CHUNK`` rounds (the last one shorter), from buffers
    allocated once per call.

    Round 0 is the initialization step from ``config.initial_quantity``:
    the round step after a tie, with no draw.  Replicate k draws from the
    streams of ``seeds[k]``, so it equals a single-seed run with that seed.
    """
    shape, s = (len(population.agent_ids), len(seeds)), population.num_suppliers
    # the signal rule on last round's (supply, consumption) totals and the same reversed: the side in excess is
    # signalled, neither on a tie; flipped semantics signal the side in deficit, for comparison studies
    step, excess = population.bind_step(len(seeds)), np.less if config.flip_signal_semantics else np.greater
    rows = min(EXPORT_CHUNK, config.horizon + 1)
    columns = [np.empty((rows, *shape), dtype) for dtype in [float] * 3 + [bool]]
    signals = np.empty((rows, 2, len(seeds)), dtype=bool)
    # each side's partial sums in agent order: the (rounds x 2 x replicates) totals are rows s - 1 and agents - 1
    partial_sums = np.empty((rows, *shape))
    totals = partial_sums[:, s - 1::shape[0] - s]
    # stream-major: each stream fills its block's rounds in place, one call per block; the block then copies them
    # round-major into the partial sums, whose row t the round-t step reads as its draws before accumulate
    # overwrites it, so that a round reads its draws contiguously, not one cache line per stream
    draws = np.zeros((*shape, rows))
    fills = [(rng.random, stream) for rng, stream in zip(
        agent_rng_streams(seeds, config.num_suppliers, config.num_consumers), draws.reshape(-1, rows))]
    side_of = np.repeat([0, 1], [s, shape[0] - s])  # agent i reads the signal signals[t, side_of[i]]
    signalled, scratch = np.empty(shape, dtype=bool), (np.empty(shape), np.empty(shape, dtype=bool))
    # the average entering round t holds t samples (rounds 0..t-1); the step reads t and t + 1 as 0-d views of
    # counts, which each block sets to its rounds, so that its ufuncs convert no Python number
    block_rounds, counts = np.arange(rows + 1, dtype=float), np.empty(rows + 1)
    # each round's views, built once: the step's `after` and the first three of it, the next round's `before`;
    # its signals, its draws, each side's quantities and partial sums, its totals, which the next round's
    # signals compare, also reversed, and its sample counts
    views = [(*round_views, (counts[b, ...], counts[b + 1, ...])) for b, round_views in enumerate(zip(
        zip(*columns), (row[:3] for row in zip(*columns)), signals, partial_sums, columns[0][:, :s],
        columns[0][:, s:], partial_sums[:, :s], partial_sums[:, s:], totals, totals[:, ::-1]))]
    accumulate = np.add.accumulate
    # round 0 follows a tie, so nobody is signalled and u'(average) goes unread
    start = np.full(shape, float(config.initial_quantity))
    carry = np.zeros((2, len(seeds)))  # last round's totals, which the next block's draws overwrite
    before, (last, last_reversed) = (start, start, start), (carry, carry[::-1])
    for first in range(0, config.horizon + 1, EXPORT_CHUNK):
        block, skip = min(EXPORT_CHUNK, config.horizon + 1 - first), int(first == 0)  # round 0 draws nothing
        for fill, stream in fills:
            fill(out=stream[skip:block])
        np.copyto(carry, last)
        np.copyto(partial_sums[:block], np.moveaxis(draws[..., :block], -1, 0))
        last, last_reversed = carry, carry[::-1]
        np.add(block_rounds, first, counts)
        # the EPS_AVG guard is inert on a block whose averages stay >= EPS_AVG: quantities are >= 0, so an average
        # of t samples falls by at most t / (t + 1) a round; the half covers rounding, and a NaN keeps the guard
        guarded = not before[1].min() * first / (first + block) * 0.5 >= EPS_AVG
        # the round step's lambda divides by averages of 0; the caller's state holds across the yield
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for (row, next_before, signal, draw, supply, consumption, supplier_sums, consumer_sums, total,
                 reversed_total, samples) in views[:block]:
                excess(last, last_reversed, signal)
                signal.take(side_of, 0, signalled, "clip")  # in range: unlike "raise", "clip" writes no copy
                step(before, row, samples, signalled, draw, scratch, guarded)
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
