import math

import numpy as np
import pytest

from aimdmarket.agent import Branch, Role
from aimdmarket.scenario import MarketConfig, validate_config
from aimdmarket.utility import UtilitySpec
from scalar_oracle import (
    AgentState,
    RoleParams,
    compute_backoff_probability,
    initial_state,
    step,
    update_running_average,
)


def params(alpha=5.0, beta=0.75, gamma=2.0):
    return RoleParams(alpha, beta, gamma)


def supplier(quantity, average, utility=None, rounds=3):
    return AgentState(
        agent_id="s0",
        role=Role.SUPPLIER,
        quantity=quantity,
        running_average=average,
        rounds_elapsed=rounds,
        utility=utility or UtilitySpec.quadratic(50.0, 10.0),
    )


# --- running average ---------------------------------------------------


def test_running_average_two_samples():
    assert update_running_average(10.0, 1, 22.0) == pytest.approx(16.0)


def test_running_average_first_sample():
    assert update_running_average(0.0, 0, 7.5) == 7.5


def test_running_average_explicit_sequence():
    # brute-force oracle over 5, 10, 15
    avg, n = 0.0, 0
    for q in [5.0, 10.0, 15.0]:
        avg = update_running_average(avg, n, q)
        n += 1
    assert avg == pytest.approx(sum([5.0, 10.0, 15.0]) / 3)


def test_running_average_matches_brute_force_long():
    rng = np.random.default_rng(123)
    values = rng.uniform(0.0, 500.0, size=100_000)
    avg, n = 0.0, 0
    for q in values:
        avg = update_running_average(avg, n, float(q))
        n += 1
    brute = float(np.mean(values))
    assert abs(avg - brute) <= 1e-9 * abs(brute)


# --- back-off probability ----------------------------------------------


def test_backoff_below_optimum():
    # derivative 5 at average 25 -> 2*5/25
    assert compute_backoff_probability(supplier(25.0, 25.0), params()) == pytest.approx(0.4)


def test_backoff_zero_at_optimum():
    assert compute_backoff_probability(supplier(50.0, 50.0), params()) == 0.0


def test_backoff_negative_raw_clamped_to_zero():
    # raw = 2 * (-1/3): past the optimum the agent never backs off
    assert compute_backoff_probability(supplier(60.0, 60.0), params()) == 0.0


def test_backoff_clamped_to_one():
    state = supplier(1.0, 1.0, UtilitySpec.quadratic(500.0, 10.0))
    assert compute_backoff_probability(state, params()) == 1.0


def test_backoff_cold_start_guard():
    state = supplier(0.0, 0.0)
    assert compute_backoff_probability(state, params()) == 0.0


def test_backoff_sqrt_large_scale_clamped():
    state = supplier(1.0, 1.0, UtilitySpec.sqrt_monotone(1000.0))
    assert compute_backoff_probability(state, params()) == 1.0


# --- step branches ------------------------------------------------------


def test_step_additive_increase_without_signal():
    state = supplier(10.0, 10.0, UtilitySpec.quadratic(60.0, 10.0))
    new, trace = step(state, 0, params(), 0.5)
    assert new.quantity == 15.0
    assert trace.branch is Branch.ADDITIVE_INCREASE
    assert trace.backoff_probability == 0.0
    assert trace.bernoulli == 0


def test_step_multiplicative_decrease_forced():
    # average below optimum so lambda > 0; draw 0 forces b=1
    state = supplier(100.0, 25.0)
    new, trace = step(state, 1, params(), 0.0)
    assert new.quantity == pytest.approx(75.0)
    assert trace.branch is Branch.MULTIPLICATIVE_DECREASE
    assert trace.bernoulli == 1


def test_step_additive_decrease_above_optimum():
    # lambda = 0 past the optimum, so any draw gives b=0
    state = supplier(65.0, 65.0, UtilitySpec.quadratic(60.0, 10.0))
    new, trace = step(state, 1, params(), 0.99)
    assert new.quantity == pytest.approx(60.0)
    assert trace.branch is Branch.ADDITIVE_DECREASE


def test_step_decrease_clamped_at_zero():
    state = supplier(3.0, 3.0, UtilitySpec.quadratic(1.0, 10.0))
    new, trace = step(state, 0, params(), 0.5)
    assert new.quantity == 0.0
    assert trace.branch is Branch.ADDITIVE_DECREASE


def test_step_tie_with_optimum_increases():
    state = supplier(60.0, 60.0, UtilitySpec.quadratic(60.0, 10.0))
    new, trace = step(state, 0, params(), 0.5)
    assert new.quantity == 65.0
    assert trace.branch is Branch.ADDITIVE_INCREASE


def test_step_sqrt_always_increases_when_not_backed_off():
    state = supplier(5000.0, 5000.0, UtilitySpec.sqrt_monotone(2.0))
    new, trace = step(state, 0, params(), 0.5)
    assert new.quantity == 5005.0
    assert trace.branch is Branch.ADDITIVE_INCREASE


def test_step_updates_running_average_and_round():
    state = supplier(10.0, 8.0, UtilitySpec.quadratic(60.0, 10.0), rounds=4)
    new, _ = step(state, 0, params(), 0.5)
    # 5 samples averaged 8.0, new sample 15.0
    assert new.running_average == pytest.approx((8.0 * 5 + 15.0) / 6)
    assert new.rounds_elapsed == 5


def test_step_is_pure():
    state = supplier(40.0, 30.0)
    a = step(state, 1, params(), 0.37)
    b = step(state, 1, params(), 0.37)
    assert a == b
    assert state.quantity == 40.0  # input untouched


def test_trace_invariants_over_fuzz():
    rng = np.random.default_rng(99)
    state = supplier(12.0, 12.0, UtilitySpec.quadratic(80.0, 12.0), rounds=0)
    p = params()
    for _ in range(2000):
        signal = int(rng.integers(0, 2))
        state, trace = step(state, signal, p, float(rng.random()))
        assert 0.0 <= trace.backoff_probability <= 1.0
        assert (trace.branch is Branch.MULTIPLICATIVE_DECREASE) == (trace.bernoulli == 1)
        if not signal:
            assert trace.backoff_probability == 0.0
        assert state.quantity >= 0.0


# --- initialization -----------------------------------------------------


def test_initial_state_forced_increase_from_zero():
    state, trace = initial_state("s0", Role.SUPPLIER, UtilitySpec.quadratic(50.0, 10.0), 0.0, params())
    assert state.quantity == 5.0
    assert state.running_average == 5.0
    assert state.rounds_elapsed == 0
    assert trace.branch is Branch.ADDITIVE_INCREASE
    assert trace.backoff_probability == 0.0


def test_initial_state_above_optimum_decreases():
    state, trace = initial_state("s0", Role.SUPPLIER, UtilitySpec.quadratic(10.0, 5.0), 40.0, params())
    assert state.quantity == 35.0
    assert trace.branch is Branch.ADDITIVE_DECREASE


def test_initial_state_rejects_negative():
    with pytest.raises(ValueError):
        initial_state("s0", Role.SUPPLIER, UtilitySpec.quadratic(10.0, 5.0), -1.0, params())


# --- gamma = 0 deterministic oracle --------------------------------------


def test_gamma_zero_enters_band_and_stays():
    # with back-off disabled the quantity is pure +/- alpha motion toward
    # the optimum: band entry within ceil(|z0 - z*| / alpha), never leaves
    p = params(alpha=5.0, gamma=0.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        optimum = float(rng.uniform(0.0, 120.0))
        start = float(rng.uniform(0.0, 150.0))
        u = UtilitySpec.quadratic(optimum, 15.0)
        state = AgentState("a", Role.SUPPLIER, start, start, 0, u)
        bound = math.ceil(abs(start - optimum) / p.alpha)
        entered = None
        for t in range(1, bound + 200):
            state, _ = step(state, int(rng.integers(0, 2)), p, float(rng.random()))
            inside = abs(state.quantity - optimum) <= p.alpha
            if entered is None and inside:
                entered = t
            if entered is not None:
                assert inside, f"left band at t={t}"
        assert entered is not None and entered <= max(bound, 1)


def test_role_params_validation():
    # the role constants are checked where every run parameter is, in validate_config
    for kwargs, field in [
        (dict(alpha_s=0.0), "supplier_params.alpha"),
        (dict(beta_c=1.0), "consumer_params.beta"),
        (dict(beta_s=0.0), "supplier_params.beta"),
        (dict(gamma=-0.1), "gamma"),
    ]:
        (violation,) = validate_config(MarketConfig(1, 1, **kwargs))
        assert violation.startswith(f"{field} must ")
