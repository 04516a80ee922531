"""The market center and the simulation kernel that both run drivers use.

Each round the center compares last round's total supply with total
consumption and broadcasts at most one one-bit signal: the supplier side
is signaled on excess supply, the consumer side on excess consumption,
nobody on an exact tie.  All agents then step synchronously.  Randomness
is organized as one independent stream per agent with one uniform draw
per round, so results do not depend on any execution schedule.

``simulate`` advances an (agents x replicates) state, one replicate per
seed, and yields each round's columns.  ``run`` drives it with one seed
and stores every round in the columns of a ``metrics.Trajectory``;
``replicate_series`` drives it once for all seeds and keeps only what the
confidence band and the summaries need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .agent import Population, Role
from .metrics import RunSummary, Trajectory, summarize_final, trailing_window
from .scenario import MarketConfig, ScenarioSpec, validate_config, validate_scenario
from .utility import ordered_sum

# Rounds of uniform draws generated per stream at a time: memory stays
# O(DRAW_BLOCK x agents x replicates) whatever the horizon.
DRAW_BLOCK = 256


@dataclass(frozen=True, eq=False)
class RunResult:
    """The trajectory's columns (rounds 0..horizon) and its summary."""

    trajectory: Trajectory
    summary: RunSummary


class RoundColumns(NamedTuple):
    """One round of ``simulate``: per-agent arrays are (agents x
    replicates), per-round totals and signals have one entry per replicate."""

    round: int
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


def _excess_sides(supply, consumption, flip_semantics: bool):
    """The (supplier, consumer) signals from last round's totals: the side in
    excess, neither on a tie; ``flip_semantics`` swaps them, for comparison studies."""
    s, c = supply > consumption, consumption > supply
    return (c, s) if flip_semantics else (s, c)


def agent_rng_streams(seed: int, num_suppliers: int, num_consumers: int):
    """One PCG64 stream per agent, keyed on (seed, role, index).

    Each stream is consumed at exactly one draw per round, so the round-t
    variate of an agent is fixed by the seed alone.
    """
    suppliers = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, i)))
        for i in range(num_suppliers)
    ]
    consumers = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, j)))
        for j in range(num_consumers)
    ]
    return suppliers, consumers


def _side_totals(population: Population, quantity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Agent order, not np.sum's pairwise order: the totals decide the signals.
    s = population.num_suppliers
    return quantity[:s].cumsum(axis=0)[-1], quantity[s:].cumsum(axis=0)[-1]


def simulate(
    population: Population, config: MarketConfig, seeds: Sequence[int], *, flip_signal_semantics: bool = False
) -> Iterator[RoundColumns]:
    """Yield rounds 0..horizon of one market per seed, in lockstep.

    Round 0 is the signal-free initialization step from
    ``config.initial_quantity``.  Replicate k draws from the streams of
    ``seeds[k]``, so it equals a single-seed run with that seed.
    """
    shape, s = (len(population.agent_ids), len(seeds)), population.num_suppliers
    quantity, branch = population.move(np.full(shape, float(config.initial_quantity)))
    avg = quantity
    marginal = population.derivative(avg)
    supply, consumption = _side_totals(population, quantity)
    quiet = np.zeros(len(seeds), dtype=bool)
    yield RoundColumns(0, quantity, avg, marginal, np.zeros(shape), np.zeros(shape, dtype=bool), branch,
                       supply, consumption, quiet, quiet)

    signalled = np.empty(shape, dtype=bool)
    streams = [sum(agent_rng_streams(seed, config.num_suppliers, config.num_consumers), []) for seed in seeds]
    for first in range(1, config.horizon + 1, DRAW_BLOCK):
        block = min(DRAW_BLOCK, config.horizon + 1 - first)
        draws = np.empty((block, *shape))
        for k, replicate in enumerate(streams):
            for i, rng in enumerate(replicate):
                draws[:, i, k] = rng.random(block)
        for b in range(block):
            supplier_signal, consumer_signal = _excess_sides(supply, consumption, flip_signal_semantics)
            signalled[:s], signalled[s:] = supplier_signal, consumer_signal
            # the average before round t holds t samples (rounds 0..t-1)
            quantity, avg, lam, bernoulli, branch = population.update(
                quantity, avg, first + b, marginal, signalled, draws[b]
            )
            marginal = population.derivative(avg)
            supply, consumption = _side_totals(population, quantity)
            yield RoundColumns(
                first + b, quantity, avg, marginal, lam, bernoulli, branch, supply, consumption,
                supplier_signal, consumer_signal,
            )


def _validate(config: MarketConfig, scenario: ScenarioSpec) -> None:
    violations = validate_config(config) + validate_scenario(scenario, config)
    if violations:
        raise ValueError("invalid run inputs: " + "; ".join(violations))


def run(
    config: MarketConfig,
    scenario: ScenarioSpec,
    *,
    flip_signal_semantics: bool = False,
) -> RunResult:
    """Initialize agents, advance ``horizon`` rounds, return the trajectory.

    Invalid configs or scenarios are rejected before any round executes.
    """
    _validate(config, scenario)
    population = Population.build(config, scenario)
    rounds = simulate(population, config, [config.seed], flip_signal_semantics=flip_signal_semantics)
    first = next(rounds)  # preallocate every column from round 0's shapes and types
    columns = [np.empty((config.horizon + 1, *value.shape[:-1]), value.dtype) for value in first[1:]]
    for values in chain([first], rounds):
        for column, value in zip(columns, values[1:]):
            column[values.round] = value[..., 0]  # replicate 0
    trajectory = Trajectory(population, **dict(zip(RoundColumns._fields[1:], columns)))
    # the last `window` rounds of 1..horizon, or round 0 alone at horizon 0
    window = trailing_window(max(config.horizon, 1))
    tail = slice(config.horizon + 1 - window, None)
    summary = summarize_final(
        config.horizon,
        window,
        ordered_sum(trajectory.total_supply[tail].tolist()) / window,
        ordered_sum(trajectory.total_consumption[tail].tolist()) / window,
        trajectory.running_average[-1].tolist(),
        trajectory.derivative[-1].tolist(),
        scenario,
    )
    return RunResult(trajectory, summary)


def replicate_series(
    config: MarketConfig,
    scenario: ScenarioSpec,
    replicates: int,
    *,
    flip_signal_semantics: bool = False,
    role: Role = Role.SUPPLIER,
) -> tuple[list[list[float]], list[RunSummary]]:
    """Run ``replicates`` seeds (seed+0..R-1) against one fixed scenario.

    Returns the per-replicate mean utility-derivative series for ``role``
    plus each run's summary, equal to those of ``run`` with each seed.
    All replicates advance together in one ``simulate`` call; replicate k
    depends only on (config, k), so no result depends on the others.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _validate(config, scenario)
    population = Population.build(config, scenario)
    s = population.num_suppliers
    members = slice(0, s) if role is Role.SUPPLIER else slice(s, None)
    # The summary window covers the last `window` recorded rounds; with
    # horizon 0 that is the round-0 state alone.
    window = trailing_window(max(config.horizon, 1))
    window_start = config.horizon + 1 - window
    means, supply, consumption = [], np.zeros(replicates), np.zeros(replicates)
    seeds = [config.seed + k for k in range(replicates)]
    for columns in simulate(population, config, seeds, flip_signal_semantics=flip_signal_semantics):
        if columns.round >= 1:
            # in agent order; `+ 0.0` turns a -0.0 total into 0.0, as
            # utility.ordered_sum (which starts from 0.0) does
            member_sum = columns.derivative[members].cumsum(axis=0)[-1] + 0.0
            means.append(member_sum / len(population.agent_ids[members]))
        if columns.round >= window_start:  # 0.0 + left to right, as ordered_sum
            supply += columns.total_supply
            consumption += columns.total_consumption
    series = np.array(means).reshape(len(means), replicates).T.tolist()
    summaries = [
        summarize_final(
            columns.round,
            window,
            float(supply[k] / window),
            float(consumption[k] / window),
            columns.running_average[:, k].tolist(),
            columns.derivative[:, k].tolist(),
            scenario,
        )
        for k in range(replicates)
    ]
    return series, summaries
