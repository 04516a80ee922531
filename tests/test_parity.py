"""The array kernel against the scalar oracle (``scalar_oracle``).

Records and summaries are compared by ``repr``, which tells -0.0 from
0.0 and an int from a bool, so "equal" here means bit-identical values
of identical types.  Exports written from the columns must equal, byte
for byte, the oracle writer's exports of the oracle's records.  Run
seeds and scenario seeds are fixed in advance.
"""

import builtins
import math
import os

import numpy as np
import pytest

from aimdmarket.agent import BRANCHES, Branch, Population, Role, RoleParams
from aimdmarket.market import replicate_series, run
from aimdmarket.metrics import EXPORT_CHUNK, export_run, mean_derivative_series, summarize
from aimdmarket.scenario import MarketConfig, ScenarioMode, ScenarioSpec, generate_scenario, reference_configs
from aimdmarket.utility import UtilitySpec
from scalar_oracle import AgentState, export_records, run_records, step

SCENARIO_SEEDS = (3, 12, 21)
RUN_SEEDS = range(8)
BOTH, MONOTONE = ScenarioMode.BOTH_CONCAVE, ScenarioMode.MONOTONE_SUPPLIERS

# name: (MarketConfig.build overrides, mode, side target, flip signals,
#        what the oracle trajectory must contain for the case to count)
VARIANTS = {
    "both-concave": (dict(initial_quantity=10.0), BOTH, 300.0, False, "backoff"),
    "monotone-suppliers": (dict(initial_quantity=10.0), MONOTONE, 300.0, False, "lambda-one"),
    "flipped-signals": (dict(initial_quantity=10.0), BOTH, 300.0, True, "backoff"),
    "gamma-zero": (dict(gamma=0.0, initial_quantity=0.0), BOTH, 300.0, False, "no-backoff"),
    "start-above-optimum": (dict(initial_quantity=250.0), BOTH, 300.0, False, "decrease-at-start"),
    "clamp-at-zero": (dict(initial_quantity=4.0), BOTH, 12.0, False, "zero-quantity"),
    "horizon-0": (dict(horizon=0, initial_quantity=10.0), MONOTONE, 300.0, False, "round-0-only"),
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


# Both helpers report where the outputs first differ, rather than leave
# pytest to diff megabytes of text.


def _assert_exports_match(trajectory, records, directory):
    for fmt in ("csv", "json"):
        expected = export_records(records, fmt, directory / f"oracle.{fmt}").read_bytes()
        got = export_run(trajectory, fmt, directory / f"columns.{fmt}").read_bytes()
        same = got == expected
        at = None if same else next(i for i, (a, b) in enumerate(zip(got + b"$", expected + b"^")) if a != b)
        assert same, f"{fmt} export differs from byte {at}: {got[at:at + 80]!r} vs {expected[at:at + 80]!r}"


def _assert_utility_values_match(trajectory):
    utilities = trajectory.population.utilities
    rows = zip(trajectory.running_average.tolist(), trajectory.utility_value.tolist())
    mismatched = [
        (t, i, value, u.evaluate(avg))
        for t, (averages, values) in enumerate(rows)
        for i, (u, avg, value) in enumerate(zip(utilities, averages, values))
        if repr(value) != repr(u.evaluate(avg))
    ]
    assert mismatched == []


@pytest.mark.parametrize("scenario_seed", SCENARIO_SEEDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_kernel_matches_oracle(variant, scenario_seed, tmp_path):
    overrides, mode, target, flip, kind = VARIANTS[variant]
    config = MarketConfig.build(3, 4, **{"horizon": 120, "seed": 0, **overrides})
    scenario = generate_scenario(config, mode, target, scenario_seed)
    # Replicate k of a batched run is the run with seed base + k: the
    # suppliers' series over all run seeds, the consumers' over the last 4.
    batches = [
        (Role.SUPPLIER, 0, replicate_series(config, scenario, len(RUN_SEEDS), flip_signal_semantics=flip)),
        (Role.CONSUMER, 4, replicate_series(config.with_overrides(seed=4), scenario, 4,
                                            flip_signal_semantics=flip, role=Role.CONSUMER)),
    ]
    exercised = False
    for k in RUN_SEEDS:
        seeded = config.with_overrides(seed=k)
        initial, records = run_records(seeded, scenario, flip)
        result = run(seeded, scenario, flip_signal_semantics=flip)
        assert repr(result.initial_record) == repr(initial)
        # round by round, so a mismatch reports its round instead of a diff of the whole run
        assert len(result.records) == len(records)
        for got, expected in zip(result.records, records):
            assert repr(got) == repr(expected), f"round {expected.round} differs"
        expected_summary = summarize(records or [initial], scenario)
        assert repr(result.summary) == repr(expected_summary)
        _assert_utility_values_match(result.trajectory)
        if not exercised and _exercised(kind, initial, records):
            # the first run that reaches the variant's case; the oracle's
            # pure-Python json.dump is too slow to export every run
            _assert_exports_match(result.trajectory, records, tmp_path)
            exercised = True
        for role, base, (series, summaries) in batches:
            if k >= base:
                assert repr(series[k - base]) == repr(mean_derivative_series(records, role))
                assert repr(summaries[k - base]) == repr(expected_summary)
    assert exercised, f"{variant} never reached its case"


@pytest.mark.parametrize("reference", ["paper-a", "paper-b"])
def test_utility_value_matches_evaluate(reference):
    # Full reference runs: libm pow and d * d disagree on a handful of
    # their 135k values, so short runs alone could miss a d * d.
    config, scenario = reference_configs()[reference]
    _assert_utility_values_match(run(config, scenario).trajectory)


def test_signed_zero_lambda_export_matches_oracle(tmp_path):
    # The consumers' round-1 lambda is a clamped raw -0.0 (see
    # test_cli.test_lambda_keeps_signed_zero); both writers keep its sign.
    config = MarketConfig.build(1, 2, horizon=3, seed=1, initial_quantity=0.0)
    scenario = ScenarioSpec(
        (UtilitySpec.quadratic(10.0, 20.0),),
        (UtilitySpec.quadratic(5.0, 20.0), UtilitySpec.quadratic(5.0, 20.0)),
        10.0,
        BOTH,
    )
    _, records = run_records(config, scenario)
    assert [repr(e.trace.backoff_probability) for e in records[0].per_agent[1:]] == ["-0.0", "-0.0"]
    _assert_exports_match(run(config, scenario).trajectory, records, tmp_path)


# 0, 1 and 2 chunks of EXPORT_CHUNK = 256 rounds, and 4 chunks, which 3 CPUs split 1 + 1 + 2
@pytest.mark.parametrize("horizon", [0, 1, 256, 257, 300, 769])
def test_split_export_matches_oracle(horizon, tmp_path, monkeypatch):
    config = MarketConfig.build(3, 4, horizon=horizon, seed=2, initial_quantity=10.0)
    scenario = generate_scenario(config, BOTH, 300.0, 3)
    _, records = run_records(config, scenario)
    trajectory = run(config, scenario).trajectory
    chunks = len(range(1, horizon + 1, EXPORT_CHUNK))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 2, 3, chunks + 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        forks.clear()
        _assert_exports_match(trajectory, records, tmp_path)
        assert len(forks) == 2 * (max(1, min(cpus, chunks)) - 1)  # one worker per share after the first, per format
    assert sorted(p.name for p in tmp_path.iterdir()) == ["columns.csv", "columns.json", "oracle.csv", "oracle.json"]


def _kernel_step(state, signal, params, draw):
    config = MarketConfig(1, 0, params, params, params.gamma, horizon=1, seed=0)
    population = Population.build(config, ScenarioSpec((state.utility,), (), 1.0, BOTH))
    quantity, avg, lam, bernoulli, branch = population.update(
        np.array([[state.quantity]]),
        np.array([[state.running_average]]),
        state.rounds_elapsed + 1,
        population.derivative(np.array([[state.running_average]])),
        np.array([[bool(signal)]]),
        np.array([[draw]]),
    )
    return (float(quantity[0, 0]), float(avg[0, 0]), float(lam[0, 0]), int(bernoulli[0, 0]), BRANCHES[branch[0, 0]])


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
    params = RoleParams(5.0, 0.75, 2.0)
    for quantity, avg, utility, signal, draw in _step_cases():
        state = AgentState("s0", Role.SUPPLIER, quantity, avg, 4, utility)
        new, trace = step(state, signal, params, draw)
        expected = (new.quantity, new.running_average, trace.backoff_probability, trace.bernoulli, trace.branch)
        assert repr(_kernel_step(state, signal, params, draw)) == repr(expected), (quantity, avg, utility)


def test_zero_mean_derivative_matches_python_sum():
    # The lone supplier's average reaches its optimum 10.0 exactly at round
    # 2, where u' = -0.0; Python's sum() starts from 0 and reports 0.0.
    config = MarketConfig.build(1, 2, horizon=3, seed=0, initial_quantity=0.0)
    scenario = ScenarioSpec(
        (UtilitySpec.quadratic(10.0, 20.0),),
        (UtilitySpec.quadratic(5.0, 20.0), UtilitySpec.quadratic(5.0, 20.0)),
        10.0,
        BOTH,
    )
    series, _ = replicate_series(config, scenario, 2)
    _, records = run_records(config, scenario)
    assert repr(records[1].per_agent[0].utility_derivative) == "-0.0"
    assert repr(series[0]) == repr(mean_derivative_series(records, Role.SUPPLIER))


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
        config = config.with_overrides(horizon=150)
        result = run(config, scenario)
        initial, records = run_records(config, scenario)
        batched = replicate_series(config, scenario, 2)
        return repr((reference_configs(), result.initial_record, result.records, result.summary, initial, records,
                     summarize(records, scenario), batched))

    expected = outputs()
    monkeypatch.setattr(builtins, "sum", _correctly_rounded_sum)
    assert outputs() == expected
