"""The array kernel against the scalar oracle (``scalar_oracle``).

Records and summaries are compared by ``repr``, which tells -0.0 from
0.0 and an int from a bool, so "equal" here means bit-identical values
of identical types.  Exports written from the columns must equal, byte
for byte, the oracle writer's exports of the oracle's records.  Run
seeds and scenario seeds are fixed in advance.
"""

import builtins
import itertools
import math
import mmap
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from aimdmarket import metrics
from aimdmarket.agent import BRANCHES, Branch, Population, Role, backoff_probability
from aimdmarket.market import replicate_series, run
from aimdmarket.metrics import EXPORT_CHUNK, TOKEN_BYTES
from aimdmarket.scenario import MarketConfig, ScenarioMode, ScenarioSpec, generate_scenario, reference_configs
from aimdmarket.utility import UtilityColumns, UtilitySpec
from export_schedule import SCHEDULES, expected_takers, export_at_once, forced, streamed_export
from scalar_oracle import (
    REPR_LAYOUTS,
    AgentState,
    derivative,
    evaluate,
    export_records,
    mean_derivative_series,
    ordered_sum,
    records_from,
    run_columns,
    run_records,
    step,
    summarize,
    RoleParams as OracleParams,
)

SCENARIO_SEEDS = (3, 12, 21)
RUN_SEEDS = range(8)
BOTH, MONOTONE = ScenarioMode.BOTH_CONCAVE, ScenarioMode.MONOTONE_SUPPLIERS

# name: (MarketConfig keywords, mode, side target,
#        what the oracle trajectory must contain for the case to count)
VARIANTS = {
    "both-concave": (dict(initial_quantity=10.0), BOTH, 300.0, "backoff"),
    "monotone-suppliers": (dict(initial_quantity=10.0), MONOTONE, 300.0, "lambda-one"),
    "flipped-signals": (dict(initial_quantity=10.0, flip_signal_semantics=True), BOTH, 300.0, "backoff"),
    "gamma-zero": (dict(gamma=0.0, initial_quantity=0.0), BOTH, 300.0, "no-backoff"),
    "start-above-optimum": (dict(initial_quantity=250.0), BOTH, 300.0, "decrease-at-start"),
    "clamp-at-zero": (dict(initial_quantity=4.0), BOTH, 12.0, "zero-quantity"),
    "horizon-0": (dict(horizon=0, initial_quantity=10.0), MONOTONE, 300.0, "round-0-only"),
}


def _exercised(kind, initial, records):
    entries = [e for r in [initial, *records] for e in r.per_agent]
    if kind == "backoff":
        return any(e.trace.bernoulli for e in entries)
    if kind == "lambda-one":
        return any(e.trace.backoff_probability == 1.0 for e in entries)
    if kind == "no-backoff":
        return records and not any(e.trace.bernoulli for e in entries)
    if kind == "decrease-at-start":
        return any(e.trace.branch is Branch.ADDITIVE_DECREASE for e in initial.per_agent)
    if kind == "zero-quantity":
        return any(e.quantity == 0.0 for e in entries)
    return not records


# These helpers report where the outputs first differ, rather than leave
# pytest to diff megabytes of text.


def _first_difference(got, expected):
    """The first position at which two strings (or byte strings) differ, or None if they are equal."""
    if got == expected:
        return None
    return next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))


def _assert_same_bytes(got, expected, what):
    at = _first_difference(got, expected)
    assert at is None, f"{what} differs from byte {at}: {got[at:at + 80]!r} vs {expected[at:at + 80]!r}"


def _oracle_exports(records, directory):
    return {fmt: export_records(records, fmt, directory / f"oracle.{fmt}").read_bytes() for fmt in ("csv", "json")}


def _assert_exports_match(export, records, directory):
    """``export(fmt, destination)``'s bytes against the oracle writer's of ``records``."""
    for fmt, expected in _oracle_exports(records, directory).items():
        _assert_same_bytes(export(fmt, directory / f"columns.{fmt}").read_bytes(), expected, f"{fmt} export")


def _assert_utility_values_match(trajectory):
    utilities = trajectory.population.utilities
    rows = zip(trajectory.running_average.tolist(), run_columns(trajectory)["utility_value"].tolist())
    mismatched = [
        (t, i, value, evaluate(u, avg))
        for t, (averages, values) in enumerate(rows)
        for i, (u, avg, value) in enumerate(zip(utilities, averages, values))
        if repr(value) != repr(evaluate(u, avg))
    ]
    assert mismatched == []


def _assert_run_matches_oracle(config, scenario):
    """``run``'s records and summary against the oracle's; returns the run,
    the oracle's records and its summary."""
    initial, records = run_records(config, scenario)
    result = run(config, scenario)
    got_initial, *got_records = records_from(result.trajectory)
    assert repr(got_initial) == repr(initial)
    # round by round, so a mismatch reports its round instead of a diff of the whole run
    assert len(got_records) == len(records)
    for got, expected in zip(got_records, records):
        assert repr(got) == repr(expected), f"round {expected.round} differs"
    expected_summary = summarize(records or [initial], scenario)
    assert repr(result.summary) == repr(expected_summary)
    return result, initial, records, expected_summary


@pytest.mark.parametrize("scenario_seed", SCENARIO_SEEDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_kernel_matches_oracle(variant, scenario_seed, tmp_path):
    overrides, mode, target, kind = VARIANTS[variant]
    config = MarketConfig(3, 4, **{"horizon": 120, "seed": 0, **overrides})
    scenario = generate_scenario(config, mode, target, scenario_seed)
    # Replicate k of a batched run is the run with seed base + k: over all
    # run seeds, and over the last 4.
    batches = [
        (0, replicate_series(config, scenario, len(RUN_SEEDS))),
        (4, replicate_series(replace(config, seed=4), scenario, 4)),
    ]
    exercised = False
    for k in RUN_SEEDS:
        seeded = replace(config, seed=k)
        result, initial, records, expected_summary = _assert_run_matches_oracle(seeded, scenario)
        _assert_utility_values_match(result.trajectory)
        if not exercised and _exercised(kind, initial, records):
            # the first run that reaches the variant's case; the oracle's
            # pure-Python json.dump is too slow to export every run
            _assert_exports_match(partial(streamed_export, seeded, scenario), records, tmp_path)
            exercised = True
        for base, (series, summaries) in batches:
            if k >= base:
                assert repr(series[k - base].tolist()) == repr(mean_derivative_series(records, Role.SUPPLIER))
                assert repr(summaries[k - base]) == repr(expected_summary)
    assert exercised, f"{variant} never reached its case"


# The kernel advances 256-round blocks, the first holding round 0: 255 ends
# one round short of a block, 256 and 257 cross into the second, and at 600
# the 100-round trailing window starts at round 501, inside the second block.
# The horizons also take every branch of the trailing window: round 0 alone
# (0), every round below 100 (1, 99), the 100-round floor (255..600) and 10%
# of the horizon (1001, 101 rounds).  The kernel reads the side totals as the
# partial sums of agents s - 1 and n - 1; markets with one agent on a side
# put them at the edges: the first agent's with one supplier, adjacent
# agents' with one consumer, and agents 0 and 1 in a 1 x 1 market.
BOUNDARY_CASES = ([((3, 4), h) for h in (0, 1, 99, 255, 256, 257, 600, 1001)]
                  + [(size, h) for size in ((1, 1), (1, 3), (3, 1)) for h in (0, 1, 255, 257, 600)])


@pytest.mark.parametrize("size, horizon", BOUNDARY_CASES,
                         ids=[f"{h}" if size == (3, 4) else f"{size[0]}x{size[1]}-{h}" for size, h in BOUNDARY_CASES])
@pytest.mark.parametrize("variant", ["both-concave", "flipped-signals", "monotone-suppliers"])
def test_block_boundaries_match_oracle(variant, size, horizon):
    overrides, mode, target, _ = VARIANTS[variant]
    config = MarketConfig(*size, **{"horizon": horizon, "seed": 0, **overrides})
    scenario = generate_scenario(config, mode, target, SCENARIO_SEEDS[0])
    replicates = 3
    series, summaries = replicate_series(config, scenario, replicates)
    for k in range(replicates):
        _, _, records, expected_summary = _assert_run_matches_oracle(replace(config, seed=k), scenario)
        assert repr(series[k].tolist()) == repr(mean_derivative_series(records, Role.SUPPLIER))
        assert repr(summaries[k]) == repr(expected_summary)


@pytest.mark.parametrize("reference", ["paper-a", "paper-b"])
def test_utility_value_matches_evaluate(reference):
    # Full reference runs: libm pow and d * d disagree on a handful of
    # their 135k values, so short runs alone could miss a d * d.
    config, scenario = reference_configs()[reference]
    _assert_utility_values_match(run(config, scenario).trajectory)


def test_array_utility_forms_match_oracle_on_edges():
    # value and u' of each (utility, average) pair as one mixed population evaluates them, against
    # the oracle's scalar forms, by repr; the value form overflows to +-inf quietly, as the scalar
    # form does, and u' under the round step's error state
    quad, sqrt = UtilitySpec.quadratic, UtilitySpec.sqrt_monotone
    below, above = float(np.nextafter(50.0, 0.0)), float(np.nextafter(50.0, np.inf))
    edges = [
        (quad(-0.0, 20.0), [0.0, 5e-324, 1.0]),  # stored as a +0.0 optimum
        (quad(50.0, 10.0), [50.0, below, above, 0.0]),  # at z*, just below and just above it
        (quad(50.0, 1e-300), [50.0, below, above, 0.0, 1e6]),  # u and u' overflow at 1e6
        (quad(50.0, 1e300), [50.0, below, above, 0.0, 1e150, 50.0 - 1e-9, 50.0 + 3e-9]),  # subnormal u
        (sqrt(3.0), [5e-324, 1.0, 1e300]),
        (sqrt(1e300), [5e-324, 1e300]),  # u' overflows at 5e-324
    ]
    cases = [(u, z) for u, averages in edges for z in averages]
    columns, avg = UtilityColumns.of([u for u, _ in cases]), np.array([[z] for _, z in cases])
    values, marginal = columns.values(avg), np.empty_like(avg)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        columns.bind_derivative()(avg, marginal, np.empty_like(avg))
    got = [(repr(value), repr(slope)) for value, slope in zip(values.ravel().tolist(), marginal.ravel().tolist())]
    assert got == [(repr(evaluate(u, z)), repr(derivative(u, z))) for u, z in cases]
    assert {"-inf", "inf", "-0.0"} <= {text for pair in got for text in pair}
    # a gap whose square passes the largest float raises in both forms
    with pytest.raises(OverflowError):
        evaluate(quad(0.0, 1.0), 1e155)
    with pytest.raises(OverflowError):
        UtilityColumns.of([quad(0.0, 1.0)]).values(np.array([[1e155]]))


@pytest.mark.parametrize("reference", ["paper-a", "paper-b"])
def test_replicate_summaries_match_scalar_utilities(reference):
    # the summaries evaluate the final averages of all replicates in one array pass
    config, scenario = reference_configs()[reference]
    utilities, s = scenario.supplier_utilities + scenario.consumer_utilities, len(scenario.supplier_utilities)
    _, summaries = replicate_series(config, scenario, 8)
    for summary in summaries:
        averages = [agent["final_running_average"] for agent in summary["agents"]]
        values = [evaluate(u, avg) for u, avg in zip(utilities, averages)]
        sums = [summary[name] for name in
                ("final_sum_of_utilities", "final_supplier_utility_sum", "final_consumer_utility_sum")]
        assert repr(sums) == repr([ordered_sum(values), ordered_sum(values[:s]), ordered_sum(values[s:])])
        assert [repr(agent["final_derivative"]) for agent in summary["agents"]] == [
            repr(derivative(u, avg)) for u, avg in zip(utilities, averages)]
    assert len({summary["final_sum_of_utilities"] for summary in summaries}) == 8


def test_signed_zero_lambda_export_matches_oracle(tmp_path):
    # The consumers' round-1 lambda is a clamped raw -0.0 (see
    # test_cli.test_lambda_keeps_signed_zero); both writers keep its sign.
    config = MarketConfig(1, 2, horizon=3, seed=1, initial_quantity=0.0)
    scenario = ScenarioSpec(
        (UtilitySpec.quadratic(10.0, 20.0),),
        (UtilitySpec.quadratic(5.0, 20.0), UtilitySpec.quadratic(5.0, 20.0)),
        10.0,
        BOTH,
    )
    _, records = run_records(config, scenario)
    assert [repr(e.trace.backoff_probability) for e in records[0].per_agent[1:]] == ["-0.0", "-0.0"]
    _assert_exports_match(partial(streamed_export, config, scenario), records, tmp_path)


def test_negative_zero_optimum_matches_oracle():
    # validate_scenario accepts an optimum of -0.0 (-0.0 >= 0).  The consumer
    # steps 0 -> alpha -> 0.0, and at a quantity of +0.0 the rule "q + alpha
    # if q <= z*" increases it again, though 0.0 - (-0.0) is +0.0.
    config = MarketConfig(1, 2, horizon=8, seed=0, initial_quantity=0.0)
    consumers = UtilitySpec.quadratic(-0.0, 20.0), UtilitySpec.quadratic(10.0, 20.0)
    scenario = ScenarioSpec((UtilitySpec.quadratic(10.0, 20.0),), consumers, 10.0, BOTH)
    _, _, records, _ = _assert_run_matches_oracle(config, scenario)
    assert [r.per_agent[1].trace.branch for r in records[:2]] == [Branch.ADDITIVE_DECREASE, Branch.ADDITIVE_INCREASE]


def test_every_repr_layout_exports_as_oracle(tmp_path):
    # No run reaches most of repr's layouts, so a small run's float columns take values in each of
    # them, cycling through rounds and agents.  The running averages take only the nonnegative
    # values below 1e100: a run's averages are never negative, and their utility values stay finite.
    # Lambda is derived from the derivative and average entering each round, so it is not injected.
    config = MarketConfig(2, 3, horizon=20, seed=4, initial_quantity=10.0)
    trajectory = run(config, generate_scenario(config, BOTH, 300.0, 3)).trajectory
    layouts = np.array(REPR_LAYOUTS)
    names = ("quantity", "derivative", "total_supply", "total_consumption")
    replaced = replace(trajectory, running_average=np.resize(abs(layouts[abs(layouts) < 1e100]), (21, 5)),
                       **{name: np.resize(layouts, getattr(trajectory, name).shape) for name in names})
    columns = run_columns(replaced)
    assert np.isfinite(columns["utility_value"]).all() and np.isfinite(columns["sum_of_utilities"]).all()
    _assert_exports_match(partial(export_at_once, replaced), records_from(replaced)[1:], tmp_path)


def _export_chunks(horizon):
    # rounds 1..horizon in chunks aligned to EXPORT_CHUNK = 256 rounds from round 0
    return len(range(0, horizon + 1, EXPORT_CHUNK)) if horizon else 0


# 0 chunks; 1; 1 ending on a chunk's last round; 2, the second of one round; 2; 3; and 4, among 1, 2 or 3 workers
@pytest.mark.parametrize("horizon", [0, 1, 255, 256, 257, 300, 513, 769])
def test_split_export_matches_oracle(horizon, tmp_path, monkeypatch):
    config = MarketConfig(3, 4, horizon=horizon, seed=2, initial_quantity=10.0)
    scenario = generate_scenario(config, BOTH, 300.0, 3)
    oracle = _oracle_exports(run_records(config, scenario)[1], tmp_path)
    trajectory = run(config, scenario).trajectory
    chunks = _export_chunks(horizon)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 2, 3, chunks + 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        forks.clear()
        for fmt, expected in oracle.items():
            got = export_at_once(trajectory, fmt, tmp_path / f"columns.{fmt}").read_bytes()
            _assert_same_bytes(got, expected, f"{fmt} export with {cpus} CPUs")
            got = streamed_export(config, scenario, fmt, tmp_path / f"streamed.{fmt}").read_bytes()
            _assert_same_bytes(got, expected, f"streamed {fmt} export with {cpus} CPUs")
        # min(usable CPUs, chunks) - 1 workers, per format and path
        assert len(forks) == 4 * max(0, min(cpus, chunks) - 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "columns.csv", "columns.json", "oracle.csv", "oracle.json", "streamed.csv", "streamed.json"]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("horizon", [256, 769])
def test_export_bytes_do_not_depend_on_the_schedule(horizon, schedule, tmp_path, monkeypatch):
    # one worker, forced to format every chunk, none, or the even ones, while the run is simulated and after
    config = MarketConfig(3, 4, horizon=horizon, seed=2, initial_quantity=10.0)
    scenario = generate_scenario(config, BOTH, 300.0, 3)
    oracle = _oracle_exports(run_records(config, scenario)[1], tmp_path)
    trajectory = run(config, scenario).trajectory
    chunks = _export_chunks(horizon)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for path in ("at once", "streamed"):
        for fmt, expected in oracle.items():
            with forced(monkeypatch, schedule) as takers:
                if path == "at once":
                    got = export_at_once(trajectory, fmt, tmp_path / f"columns.{fmt}").read_bytes()
                else:
                    got = streamed_export(config, scenario, fmt, tmp_path / f"streamed.{fmt}").read_bytes()
            assert takers[:chunks].tolist() == expected_takers(schedule, chunks), (path, fmt)
            _assert_same_bytes(got, expected, f"{path} {fmt} export")


def test_export_formats_the_chunks_it_could_not_hand_out(tmp_path, monkeypatch):
    # a token pipe that takes two tokens and then is full: this process formats the rest in commit,
    # and the worker none of them, whether the run is simulated while they are handed out or before
    config = MarketConfig(3, 4, horizon=1300, seed=2, initial_quantity=10.0)
    scenario = generate_scenario(config, BOTH, 300.0, 3)
    oracle = _oracle_exports(run_records(config, scenario)[1], tmp_path)
    trajectory = run(config, scenario).trajectory
    exports = {"at once": lambda fmt: export_at_once(trajectory, fmt, tmp_path / f"columns.{fmt}"),
               "streamed": lambda fmt: streamed_export(config, scenario, fmt, tmp_path / f"streamed.{fmt}")}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    write, tokens, chunk_rows, here = os.write, [], metrics._chunk_rows, os.getpid()
    # formats[side, k]: how often this process (side 0) or the worker (side 1) formatted chunk k
    formats = np.frombuffer(mmap.mmap(-1, 2 * _export_chunks(1300)), np.int8).reshape(2, -1)

    def counted_chunk_rows(fmt, rows, *args):
        formats[int(os.getpid() != here), rows.start // EXPORT_CHUNK] += 1
        return chunk_rows(fmt, rows, *args)

    def write_two_tokens(fd, data):
        if len(data) == TOKEN_BYTES:
            if len(tokens) == 2:
                raise BlockingIOError
            tokens.append(int.from_bytes(data, "little"))
        return write(fd, data)

    monkeypatch.setattr(os, "write", write_two_tokens)
    monkeypatch.setattr(metrics, "_chunk_rows", counted_chunk_rows)
    for (path, export), (fmt, expected) in itertools.product(exports.items(), oracle.items()):
        tokens.clear()
        formats[:] = 0
        _assert_same_bytes(export(fmt).read_bytes(), expected, f"{path} {fmt} export")
        assert tokens == [0, 1], (path, fmt)
        assert formats.sum(axis=0).tolist() == [1] * formats.shape[1], (path, fmt)
        assert formats[1, 2:].tolist() == [0] * (formats.shape[1] - 2), (path, fmt)


def _kernel_step(state, signal, params, draw):
    # the round step that simulate binds, from u'(avg) as the oracle computes it, then the derivations
    # metrics.derived_columns applies; u'(new avg) is checked against the oracle's derivative here
    config = MarketConfig(1, 0, alpha_s=params.alpha, beta_s=params.beta, alpha_c=params.alpha, beta_c=params.beta,
                          gamma=params.gamma, horizon=1, seed=0)
    population = Population.build(config, ScenarioSpec((state.utility,), (), 1.0, BOTH))
    quantity, avg = np.array([[state.quantity]]), np.array([[state.running_average]])
    signalled, scratch = np.array([[bool(signal)]]), (np.empty((1, 1)), np.empty((1, 1), dtype=bool))
    after = tuple(np.empty((1, 1)) for _ in range(3)) + (np.empty((1, 1), dtype=bool),)
    before = (quantity, avg, np.array([[derivative(state.utility, state.running_average)]]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as simulate runs the step
        step = population.bind_step(1)
        # the samples the average holds and will hold, as 0-d float arrays, as simulate passes them
        samples = np.array(float(state.rounds_elapsed + 1)), np.array(float(state.rounds_elapsed + 2))
        step(before, after, samples, signalled, np.array([[draw]]), scratch)
        lam = backoff_probability(population.gamma * before[2] / avg, signalled, avg)
    new_quantity, new_avg, new_marginal, bernoulli = after
    assert repr(float(new_marginal[0, 0])) == repr(derivative(state.utility, float(new_avg[0, 0])))
    branch = population.branches(quantity, bernoulli)
    return (float(new_quantity[0, 0]), float(new_avg[0, 0]), float(lam[0, 0]), int(bernoulli[0, 0]),
            BRANCHES[branch[0, 0]])


def test_simulate_runs_the_bound_step(monkeypatch):
    # the step _kernel_step drives is the one simulate calls each round: Population.bind_step's
    bound, bind = [], Population.bind_step

    def recording_bind(population, replicates):
        step = bind(population, replicates)
        bound.append((replicates, []))
        # the values of the sample counts, which simulate passes as views of a buffer that each block sets
        return lambda before, after, samples, *rest: (bound[-1][1].append(tuple(map(float, samples)))
                                                      or step(before, after, samples, *rest))

    monkeypatch.setattr(Population, "bind_step", recording_bind)
    config, scenario = reference_configs()["paper-b"]
    config = replace(config, horizon=300)
    initial, records = run_records(config, scenario)
    got = records_from(run(config, scenario).trajectory)
    assert len(got) == len(records) + 1
    for t, (record, expected) in enumerate(zip(got, [initial, *records])):
        assert repr(record) == repr(expected), f"round {t}"
    # bound once for one replicate, then called for rounds 0..horizon, an average of t samples entering round t
    assert bound == [(1, [(t, t + 1) for t in range(301)])]


def _step_cases():
    quad, sqrt = UtilitySpec.quadratic, UtilitySpec.sqrt_monotone
    fixed = [
        (25.0, 25.0, quad(50.0, 10.0), 1, 0.5),  # lambda 0.4, no cut
        (100.0, 25.0, quad(50.0, 10.0), 1, 0.0),  # forced cut
        (50.0, 50.0, quad(50.0, 10.0), 1, 0.5),  # raw -0.0 at the optimum
        (60.0, 60.0, quad(50.0, 10.0), 1, 0.5),  # negative raw, additive decrease
        (1.0, 1.0, quad(500.0, 10.0), 1, 0.99),  # clamped to 1
        (0.0, 0.0, quad(50.0, 10.0), 1, 0.0),  # cold start
        (1.0, 1.0, sqrt(1000.0), 1, 0.5),  # sqrt clamped to 1
        (3.0, 3.0, quad(1.0, 10.0), 0, 0.5),  # decrease floored at 0
        (60.0, 60.0, quad(60.0, 10.0), 0, 0.5),  # tie with the optimum increases
        (5000.0, 5000.0, sqrt(2.0), 0, 0.5),  # sqrt always increases
    ]
    rng = np.random.default_rng(17)
    fuzzed = []
    for _ in range(300):
        u = quad(float(rng.uniform(0.0, 100.0)), float(rng.uniform(1.0, 40.0))) if rng.random() < 0.7 else sqrt(
            float(rng.uniform(1.0, 1000.0))
        )
        fuzzed.append((float(rng.uniform(0.0, 150.0)), float(rng.uniform(0.0, 150.0)), u,
                       int(rng.integers(0, 2)), float(rng.random())))
    return fixed + fuzzed


def test_single_steps_match_oracle():
    params = OracleParams(5.0, 0.75, 2.0)
    for quantity, avg, utility, signal, draw in _step_cases():
        state = AgentState("s0", Role.SUPPLIER, quantity, avg, 4, utility)
        new, trace = step(state, signal, params, draw)
        expected = (new.quantity, new.running_average, trace.backoff_probability, trace.bernoulli, trace.branch)
        assert repr(_kernel_step(state, signal, params, draw)) == repr(expected), (quantity, avg, utility)


def test_zero_mean_derivative_matches_python_sum():
    # The lone supplier's average reaches its optimum 10.0 exactly at round
    # 2, where u' = -0.0; Python's sum() starts from 0 and reports 0.0.
    config = MarketConfig(1, 2, horizon=3, seed=0, initial_quantity=0.0)
    scenario = ScenarioSpec(
        (UtilitySpec.quadratic(10.0, 20.0),),
        (UtilitySpec.quadratic(5.0, 20.0), UtilitySpec.quadratic(5.0, 20.0)),
        10.0,
        BOTH,
    )
    series, _ = replicate_series(config, scenario, 2)
    _, records = run_records(config, scenario)
    assert repr(records[1].per_agent[0].utility_derivative) == "-0.0"
    assert repr(series[0].tolist()) == repr(mean_derivative_series(records, Role.SUPPLIER))


_builtin_sum = builtins.sum


def _correctly_rounded_sum(values, start=0):
    values = list(values)
    if any(isinstance(v, float) for v in values):
        return math.fsum([start, *values])
    return _builtin_sum(values, start)


def test_no_result_depends_on_how_sum_rounds(monkeypatch):
    # From CPython 3.12, sum() of floats is compensated.  Every float total
    # adds left to right instead, so the reference scenarios, runs, batched
    # replicates and the oracle agree whatever sum() does.
    def outputs():
        config, scenario = reference_configs()["paper-b"]
        config = replace(config, horizon=150)
        result = run(config, scenario)
        initial, records = run_records(config, scenario)
        series, summaries = replicate_series(config, scenario, 2)
        return {
            "reference configs": reference_configs(),
            "run records": records_from(result.trajectory),
            "run summary": result.summary,
            "oracle initial record": initial,
            "oracle records": records,
            "oracle summary": summarize(records, scenario),
            "batched replicates": (series.tolist(), summaries),  # an array's repr rounds
        }

    expected = {name: repr(value) for name, value in outputs().items()}
    monkeypatch.setattr(builtins, "sum", _correctly_rounded_sum)
    for name, value in outputs().items():
        got = repr(value)
        at = _first_difference(got, expected[name])
        assert at is None, f"{name} differ from character {at}: {got[at:at + 80]!r} vs {expected[name][at:at + 80]!r}"
