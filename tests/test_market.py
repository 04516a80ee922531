import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from aimdmarket import market
from aimdmarket.agent import Branch, Population, Role
from aimdmarket.market import agent_rng_streams, replicate_series, run, simulate
from aimdmarket.scenario import (
    MarketConfig,
    ScenarioMode,
    ScenarioSpec,
    generate_scenario,
    reference_configs,
)
from aimdmarket.metrics import EXPORT_CHUNK
from aimdmarket.utility import UtilitySpec
from scalar_oracle import (
    AgentState,
    CapacitySignals,
    MarketState,
    advance_round,
    compute_signals,
    initialize_market,
    mean_derivative_series,
    records_from,
    role_params,
    run_columns,
)


def small_config(**kwargs):
    defaults = dict(horizon=50, seed=7, initial_quantity=10.0)
    defaults.update(kwargs)
    return MarketConfig(2, 2, **defaults)


def small_scenario(config):
    return generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 200.0, 3)


def same_columns(a, b):
    """Whether two runs hold equal values in every recorded column of a round, lambda and the branch
    codes included."""
    a, b = run_columns(a.trajectory), run_columns(b.trajectory)
    return all(np.array_equal(a[name], b[name]) for name in a)


def signals(supply, consumption, flip=False):
    """The kernel's (supplier, consumer) signals for lists of totals, as lists of ints: each pair's round-1
    signals in a 1 x 1 market whose agents start at 0 below their optima, so that round 0 moves them to
    alpha_s = supply and alpha_c = consumption, the totals round 1 compares."""
    below = UtilitySpec.quadratic(1e4, 1.0)
    scenario = ScenarioSpec((below,), (below,), 1e4, ScenarioMode.BOTH_CONCAVE)
    rounds = []
    for s, c in zip(supply, consumption):
        config = MarketConfig(1, 1, alpha_s=s, alpha_c=c, horizon=1, flip_signal_semantics=flip)
        block = next(simulate(Population.build(config, scenario), config, [0]))
        assert block.totals[0, :, 0].tolist() == [s, c]
        rounds.append(block.signals[1, :, 0])
    return tuple(np.array(rounds).T.astype(int).tolist())


# --- signals --------------------------------------------------------------


def test_signal_on_excess_supply():
    assert signals([910.0], [890.0]) == ([1], [0])


def test_signal_on_excess_consumption():
    assert signals([890.0], [910.0]) == ([0], [1])


def test_no_signal_on_tie():
    assert signals([900.0], [900.0]) == ([0], [0])


def test_flipped_semantics():
    assert signals([890.0, 5.0], [910.0, 5.0], flip=True) == ([1, 0], [0, 0])


def test_signals_never_both_set():
    rng = np.random.default_rng(1)
    totals = rng.uniform(0.0, 1000.0, size=(2, 500))
    s, c = signals(*totals.tolist())
    assert not any(a & b for a, b in zip(s, c))


def test_signals_reject_negative_totals():
    # the oracle's signal rule; the kernel's totals are sums of quantities floored at 0
    with pytest.raises(ValueError):
        compute_signals(-1.0, 5.0)


# --- advance_round --------------------------------------------------------


def test_advance_round_forced_backoff():
    config = MarketConfig(1, 1, horizon=10, seed=1, initial_quantity=0.0)
    # supplier above consumer so the supplier side is signaled
    state = MarketState(
        suppliers=(AgentState(
            agent_id="s0", role=Role.SUPPLIER, quantity=100.0, running_average=100.0,
            rounds_elapsed=0, utility=UtilitySpec.quadratic(200.0, 10.0)),),
        consumers=(AgentState(
            agent_id="c0", role=Role.CONSUMER, quantity=50.0, running_average=50.0,
            rounds_elapsed=0, utility=UtilitySpec.quadratic(200.0, 10.0)),),
        round=0,
        last_total_supply=100.0,
        last_total_consumption=50.0,
    )
    new_state, record = advance_round(state, *role_params(config), [0.0], [0.99])
    # supplier signaled, lambda = 2 * (2*100/10) / 100 = 0.4, draw 0 -> cut
    assert record.signals.supplier_signal == 1
    assert new_state.suppliers[0].quantity == pytest.approx(75.0)
    assert record.per_agent[0].trace.branch is Branch.MULTIPLICATIVE_DECREASE
    # consumer unsignaled: additive increase
    assert new_state.consumers[0].quantity == pytest.approx(55.0)


def test_tie_means_no_signals_everyone_moves_additively():
    config = MarketConfig(2, 2, horizon=5, seed=3, initial_quantity=20.0)
    scenario = ScenarioSpec(
        supplier_utilities=(UtilitySpec.quadratic(100.0, 20.0), UtilitySpec.quadratic(100.0, 20.0)),
        consumer_utilities=(UtilitySpec.quadratic(50.0, 20.0), UtilitySpec.quadratic(150.0, 20.0)),
        target_sum=200.0,
        mode=ScenarioMode.BOTH_CONCAVE,
    )
    state, initial = initialize_market(config, scenario)
    assert initial.total_supply == initial.total_consumption  # 25+25 each side
    streams = agent_rng_streams([config.seed], 2, 2)
    sup_rngs, con_rngs = streams[:2], streams[2:]
    new_state, record = advance_round(
        state, *role_params(config),
        [r.random() for r in sup_rngs], [r.random() for r in con_rngs],
    )
    assert record.signals == CapacitySignals(0, 0)
    for entry in record.per_agent:
        assert entry.trace.branch in (Branch.ADDITIVE_INCREASE, Branch.ADDITIVE_DECREASE)
        assert entry.trace.backoff_probability == 0.0


# 2**128 + 1 takes five entropy words, so its lanes are 7 words long where the others' are 6
PINNED_SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**64 + 7, 2**127, 2**128 + 1)


@pytest.mark.parametrize("seeds, num_suppliers, num_consumers", [
    (PINNED_SEEDS, 2, 1800),
    (range(2**32 - 2, 2**32 + 2), 3, 4),  # a replicate range across 2**32: seeds of one and two entropy words
    (range(2**128 - 2, 2**128 + 2), 3, 4),  # and across 2**128: lanes of 6 and 7 words in one call
], ids=["pinned", "across-2-32", "across-2-128"])
def test_streams_are_numpys_seed_sequence_streams(seeds, num_suppliers, num_consumers):
    # lane by lane, the state words that numpy's SeedSequence gives PCG64 and the first draws of its stream:
    # a change to SeedSequence fails here instead of silently changing every stream
    streams = agent_rng_streams(list(seeds), num_suppliers, num_consumers)
    keys = [(role, i) for role, count in enumerate((num_suppliers, num_consumers)) for i in range(count)]
    assert len(streams) == len(keys) * len(seeds)
    got = [(stream.bit_generator.seed_seq.generate_state(4, np.uint64).tolist(), stream.random(3).tolist())
           for stream in streams]
    expected = []
    for (role, i), seed in itertools.product(keys, seeds):  # agent-major, as the streams are
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(role, i))
        expected.append((sequence.generate_state(4, np.uint64).tolist(),
                         np.random.default_rng(sequence).random(3).tolist()))
    assert [lane for lane, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]] == []


def test_round_record_conservation():
    config = small_config()
    scenario = small_scenario(config)
    trajectory = run(config, scenario).trajectory
    s, columns = trajectory.population.num_suppliers, run_columns(trajectory)
    for t in range(1, config.horizon + 1):
        quantities = trajectory.quantity[t].tolist()
        assert trajectory.total_supply[t] == sum(quantities[:s])
        assert trajectory.total_consumption[t] == sum(quantities[s:])
        value_sum = sum(columns["utility_value"][t].tolist())
        assert columns["sum_of_utilities"][t] == pytest.approx(value_sum, rel=1e-12)


def test_records_numbered_from_one():
    config = small_config(horizon=7)
    trajectory = run(config, small_scenario(config)).trajectory
    # rows 0..7: round 0, the initialization step, then rounds 1..7
    assert {len(column) for column in run_columns(trajectory).values()} == {8}


# --- run ------------------------------------------------------------------


def test_run_determinism():
    config = small_config(horizon=200)
    scenario = small_scenario(config)
    a = run(config, scenario)
    b = run(config, scenario)
    assert same_columns(a, b)
    assert a.summary == b.summary


def test_run_seed_changes_trajectory():
    config = small_config(horizon=200, initial_quantity=5.0)
    scenario = small_scenario(config)
    a = run(config, scenario)
    b = run(dataclasses.replace(config, seed=8), scenario)
    assert not same_columns(a, b)


def test_run_horizon_zero_echoes_initial_state():
    config = small_config(horizon=0)
    scenario = small_scenario(config)
    result = run(config, scenario)
    assert len(result.trajectory.total_supply) == 1  # round 0 alone
    assert result.summary["final_round"] == 0
    assert result.summary["trailing_mean_supply"] == result.trajectory.total_supply[0]
    assert result.summary["trailing_mean_consumption"] == result.trajectory.total_consumption[0]


@pytest.mark.parametrize("caller", [{}, dict(divide="raise", over="warn", invalid="raise")])
def test_numpy_error_state_does_not_leak(caller):
    # from a cold start round 0 divides 0 by 0 for its raw lambda, quietly,
    # and the caller's error state holds outside simulate's round loops
    config = small_config(horizon=300, initial_quantity=0.0)
    scenario = small_scenario(config)
    population = Population.build(config, scenario)
    # the witness: the bound step, outside simulate's error state, refuses that 0/0
    shape, cold = (4, 1), np.zeros((4, 1))
    after = tuple(np.empty(shape) for _ in range(3)) + (np.empty(shape, dtype=bool),)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="divide"):
        population.bind_step(1)((cold,) * 3, after, (0.0, 1.0), np.zeros(shape, dtype=bool), cold,
                                (np.empty(shape), np.empty(shape, dtype=bool)))
    with warnings.catch_warnings(), np.errstate(**caller):
        warnings.simplefilter("error")
        expected = np.geterr()
        blocks = simulate(population, config, [config.seed])
        next(blocks)
        assert np.geterr() == expected
        next(blocks)
        assert np.geterr() == expected
        result = run(config, scenario)
        assert np.geterr() == expected
    assert repr(run_columns(result.trajectory)["backoff_probability"][0].tolist()) == repr([0.0] * 4)


def _recording(calls, name, function):
    return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)


def _bound_step_calls(population, monkeypatch, guarded):
    """The calls of ``np.maximum``, ``np.greater_equal``, ``np.putmask`` and ``np.copyto`` that one call of the
    population's bound step makes, by name, in order."""
    calls, shape = [], (len(population.agent_ids), 1)
    with monkeypatch.context() as patch:  # the step binds the functions it calls
        for name in ("maximum", "greater_equal", "putmask", "copyto"):
            patch.setattr(np, name, _recording(calls, name, getattr(np, name)))
        step = population.bind_step(1)
    after = tuple(np.empty(shape) for _ in range(3)) + (np.empty(shape, dtype=bool),)
    scratch = np.empty(shape), np.empty(shape, dtype=bool)
    step((np.ones(shape),) * 3, after, (1.0, 2.0), np.ones(shape, dtype=bool), np.zeros(shape), scratch, guarded)
    return calls


@pytest.mark.parametrize("name, floor, derivative", [
    ("paper-a", [], []),
    ("paper-b", [], ["copyto"]),  # the sqrt suppliers' u' is written over the quadratic form
    ("optima below alpha", ["maximum"], []),  # test_parity's clamp-at-zero scenario
], ids=["paper-a", "paper-b", "optima-below-alpha"])
def test_bound_step_skips_the_guards_that_cannot_act(name, floor, derivative, monkeypatch):
    # the floor at 0 runs only if some agent's optimum is below its alpha (else q - alpha > z* - alpha >= 0),
    # the EPS_AVG guard only while the caller asks for it, and the back-off writes its quantities by one putmask
    references = reference_configs()
    if name in references:
        population = Population.build(*references[name])
    else:
        config = MarketConfig(3, 4, horizon=10)
        population = Population.build(config, generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 12.0, 3))
    assert (population.family.optimum < population.alpha).any() == bool(floor)
    assert _bound_step_calls(population, monkeypatch, True) == floor + ["greater_equal", "putmask"] + derivative
    assert _bound_step_calls(population, monkeypatch, False) == floor + ["putmask"] + derivative


@pytest.mark.parametrize("reference", ["paper-a", "paper-b"])
def test_skipped_eps_guard_changes_no_bit(reference, monkeypatch):
    # simulate runs every block but the first without the EPS_AVG guard, as no average can fall below EPS_AVG
    # inside them, and its blocks equal bit for bit those of the run with the skip disabled by an unreachable bound
    config, scenario = reference_configs()[reference]
    config, seeds = dataclasses.replace(config, horizon=1300), [config.seed + k for k in range(8)]
    guards, bind = [], Population.bind_step

    def recording_bind(population, replicates):
        step = bind(population, replicates)
        return lambda *args: guards.append(args[6]) or step(*args)

    def blocks():
        guards.clear()
        return [(block.first, *(column.tobytes() for column in block[1:]))
                for block in simulate(Population.build(config, scenario), config, seeds)]

    monkeypatch.setattr(Population, "bind_step", recording_bind)
    skipped = blocks()
    assert len(guards) == 1301 and guards[::EXPORT_CHUNK] == [True] + [False] * 5
    monkeypatch.setattr(market, "EPS_AVG", math.inf)
    assert blocks() == skipped
    assert set(guards) == {True}


@pytest.mark.parametrize("flip", [False, True])
def test_block_signals_are_each_replicates_run_signals(flip):
    # replicate k's side signals are those of the run with seed + k; round 0 follows no round.  That each
    # agent reads its side's signal is pinned by test_parity.py::test_kernel_matches_oracle
    config = small_config(horizon=600, flip_signal_semantics=flip)
    # not small_scenario's sampler seed 3: one of its three runs (seed 7 unflipped, 9 flipped) locks into an
    # exact tie of the totals from round 50 on, after which neither side is signalled
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 200.0, 10)
    seeds = [config.seed + k for k in range(3)]
    blocks = simulate(Population.build(config, scenario), config, seeds)
    # copies, as the next block overwrites the buffers
    signals = np.concatenate([block.signals.copy() for block in blocks])
    assert signals.shape == (config.horizon + 1, 2, len(seeds))
    assert not signals[0].any()
    for k, seed in enumerate(seeds):
        trajectory = run(dataclasses.replace(config, seed=seed), scenario).trajectory
        assert trajectory.supplier_signal.any() and trajectory.consumer_signal.any()
        assert (signals[:, 0, k] == trajectory.supplier_signal).all()
        assert (signals[:, 1, k] == trajectory.consumer_signal).all()


def test_run_rejects_invalid_config():
    config = small_config()
    scenario = small_scenario(config)
    bad = dataclasses.replace(config, seed=-5)
    with pytest.raises(ValueError, match="seed"):
        run(bad, scenario)


def test_run_rejects_mismatched_scenario():
    config = small_config()
    scenario = small_scenario(config)
    wrong = MarketConfig(3, 2, horizon=10, seed=1)
    with pytest.raises(ValueError, match="supplier utilities"):
        run(wrong, scenario)


def test_replicate_series_refuses_fewer_than_one_replicate():
    config = small_config()
    with pytest.raises(ValueError, match=r"^replicates must be >= 1$"):
        replicate_series(config, small_scenario(config), 0)


def test_markov_replay_mid_trajectory():
    # the record at round t is a function of the state at t-1 and the
    # round's draws: rebuild both independently and compare
    config = small_config(horizon=30)
    scenario = small_scenario(config)
    full = run(config, scenario)

    t_split = 17
    state, _ = initialize_market(config, scenario)
    streams = agent_rng_streams([config.seed], config.num_suppliers, config.num_consumers)
    sup_rngs, con_rngs = streams[:config.num_suppliers], streams[config.num_suppliers:]
    for _ in range(t_split - 1):
        sup_draws = [r.random() for r in sup_rngs]
        con_draws = [r.random() for r in con_rngs]
        state, _ = advance_round(state, *role_params(config), sup_draws, con_draws)
    sup_draws = [r.random() for r in sup_rngs]
    con_draws = [r.random() for r in con_rngs]
    _, record = advance_round(state, *role_params(config), sup_draws, con_draws)
    assert record == records_from(full.trajectory)[t_split]


def test_gamma_zero_market_oracle():
    config = MarketConfig(
        3, 4, gamma=0.0, horizon=100, seed=11, initial_quantity=0.0
    )
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 300.0, 21)
    trajectory = run(config, scenario).trajectory
    alpha = config.alpha_s
    optima = [u.optimum for u in scenario.supplier_utilities + scenario.consumer_utilities]

    for agent_id, quantity, z_star in zip(trajectory.population.agent_ids, trajectory.quantity.T, optima):
        bound = math.ceil(abs(quantity[0] - z_star) / alpha)
        inside = np.abs(quantity[1:] - z_star) <= alpha  # rounds 1..horizon
        assert inside.any(), agent_id
        entered = int(inside.argmax()) + 1
        assert inside[entered - 1 :].all(), agent_id
        assert entered <= max(bound, 1)


def test_flip_signal_semantics_changes_dynamics():
    config = small_config(horizon=100, initial_quantity=5.0)
    scenario = small_scenario(config)
    normal = run(config, scenario)
    flipped = run(dataclasses.replace(config, flip_signal_semantics=True), scenario)
    assert not same_columns(normal, flipped)


def test_total_gap_shrinks_over_time():
    # with optima sums equal on both sides, the windowed means of total
    # supply and consumption draw together as the run progresses
    from aimdmarket.scenario import reference_configs

    config, scenario = reference_configs()["paper-a"]
    config = dataclasses.replace(config, horizon=1500)
    trajectory = run(config, scenario).trajectory
    supply = trajectory.total_supply[1:].tolist()  # rounds 1..horizon
    consumption = trajectory.total_consumption[1:].tolist()

    def window_gap(end):
        s = sum(supply[end - 500 : end]) / 500
        c = sum(consumption[end - 500 : end]) / 500
        return abs(s - c)

    assert window_gap(1500) < window_gap(500)
    assert window_gap(1500) <= 0.05 * scenario.target_sum


def test_replicate_series_order_independent():
    config = small_config(horizon=60)
    scenario = small_scenario(config)
    series, summaries = replicate_series(config, scenario, 4)
    assert len(series) == 4 and len(summaries) == 4
    # replicate k is a run with seed + k regardless of execution order
    for k in [3, 1, 0, 2]:
        solo = run(dataclasses.replace(config, seed=config.seed + k), scenario)
        assert series[k].tolist() == mean_derivative_series(records_from(solo.trajectory)[1:], Role.SUPPLIER)


def test_package_root_reexports_the_public_names():
    import aimdmarket
    from aimdmarket import MarketConfig, RunResult, run as root_run

    assert (root_run, RunResult, MarketConfig) == (
        run, aimdmarket.market.RunResult, aimdmarket.scenario.MarketConfig,
    )
    # only what the CLI, the benchmark and the tests import from the root; they import cli, metrics
    # and scenario as submodules
    assert sorted(aimdmarket.__all__) == ["MarketConfig", "RunResult", "run"]
    assert all(hasattr(aimdmarket, name) for name in aimdmarket.__all__)
