import dataclasses
import math
import warnings

import numpy as np
import pytest

from aimdmarket.agent import Branch, Population, Role
from aimdmarket.market import _excess_sides, agent_rng_streams, replicate_series, run, simulate
from aimdmarket.scenario import (
    MarketConfig,
    ScenarioMode,
    ScenarioSpec,
    generate_scenario,
)
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
    """The kernel's (supplier, consumer) signals for lists of totals, as lists of ints."""
    totals = np.array([supply, consumption])
    s, c = _excess_sides(flip)(totals, totals[::-1])
    return s.astype(int).tolist(), c.astype(int).tolist()


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
    s, c = _excess_sides(False)(totals, totals[::-1])
    assert not (s & c).any()


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
    sup_rngs, con_rngs = agent_rng_streams(config.seed, 2, 2)
    new_state, record = advance_round(
        state, *role_params(config),
        [r.random() for r in sup_rngs], [r.random() for r in con_rngs],
    )
    assert record.signals == CapacitySignals(0, 0)
    for entry in record.per_agent:
        assert entry.trace.branch in (Branch.ADDITIVE_INCREASE, Branch.ADDITIVE_DECREASE)
        assert entry.trace.backoff_probability == 0.0


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


def test_markov_replay_mid_trajectory():
    # the record at round t is a function of the state at t-1 and the
    # round's draws: rebuild both independently and compare
    config = small_config(horizon=30)
    scenario = small_scenario(config)
    full = run(config, scenario)

    t_split = 17
    state, _ = initialize_market(config, scenario)
    sup_rngs, con_rngs = agent_rng_streams(config.seed, config.num_suppliers, config.num_consumers)
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
    optima = [u.argmax() for u in scenario.supplier_utilities + scenario.consumer_utilities]

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
