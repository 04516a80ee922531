import math

import numpy as np
import pytest

from aimdmarket.scenario import MarketConfig, ScenarioMode, ScenarioSpec, validate_scenario
from aimdmarket.utility import UnboundedDerivativeError, UtilityKind, UtilitySpec
from scalar_oracle import check_derivative


def quad(optimum=50.0, curvature=10.0):
    return UtilitySpec.quadratic(optimum, curvature)


def test_evaluate_quadratic_at_optimum():
    assert quad().evaluate(50.0) == 15.0  # 1.5 * curvature


def test_evaluate_quadratic_off_optimum():
    assert quad().evaluate(40.0) == pytest.approx(5.0)  # -100/10 + 15


def test_evaluate_sqrt():
    assert UtilitySpec.sqrt_monotone(3.0).evaluate(4.0) == pytest.approx(6.0)


def test_evaluate_rejects_negative():
    with pytest.raises(ValueError):
        quad().evaluate(-1.0)
    with pytest.raises(ValueError):
        UtilitySpec.sqrt_monotone(3.0).evaluate(-0.5)


def test_derivative_values():
    assert quad().derivative(50.0) == 0.0
    assert quad().derivative(25.0) == pytest.approx(5.0)  # -2*(-25)/10
    assert UtilitySpec.sqrt_monotone(3.0).derivative(4.0) == pytest.approx(0.75)


def test_derivative_rejects_negative():
    with pytest.raises(ValueError):
        quad().derivative(-2.0)


def test_sqrt_derivative_unbounded_at_zero():
    with pytest.raises(UnboundedDerivativeError):
        UtilitySpec.sqrt_monotone(3.0).derivative(0.0)


def test_argmax():
    assert quad().argmax() == 50.0
    assert UtilitySpec.sqrt_monotone(3.0).argmax() is None
    assert UtilitySpec.quadratic(0.0, 1.0).argmax() == 0.0  # boundary optimum


def test_construction_validation():
    # validate_scenario checks each utility field: one violation naming its agent and field
    both, monotone = ScenarioMode.BOTH_CONCAVE, ScenarioMode.MONOTONE_SUPPLIERS
    cases = [
        (UtilitySpec.quadratic(-1.0, 10.0), both, "consumer[0]: optimum must be nonnegative, got -1.0"),
        (UtilitySpec.quadratic(50.0, 0.0), both, "consumer[0]: curvature must be positive, got 0.0"),
        (UtilitySpec.sqrt_monotone(-3.0), monotone, "supplier[0]: scale must be positive, got -3.0"),
        (UtilitySpec(UtilityKind.QUADRATIC, optimum=50.0, curvature=10.0, scale=1.0), both,
         "consumer[0]: scale is not a quadratic parameter"),
        (UtilitySpec(UtilityKind.SQRT_MONOTONE, optimum=5.0, scale=1.0), monotone,
         "supplier[0]: optimum is not a sqrt_monotone parameter"),
    ]
    config = MarketConfig(1, 1, horizon=10, seed=1)
    for utility, mode, violation in cases:
        valid = (quad(900.0),)  # a sqrt utility is a supplier's, the quadratics under test a consumer's
        suppliers, consumers = ((utility,), valid) if mode is monotone else (valid, (utility,))
        assert validate_scenario(ScenarioSpec(suppliers, consumers, 900.0, mode), config) == [violation]


def test_check_derivative_quadratic():
    # central difference is exact for quadratics up to rounding
    assert check_derivative(quad(), 30.0, 1e-4) <= 1e-6


def test_check_derivative_sqrt():
    assert check_derivative(UtilitySpec.sqrt_monotone(3.0), 4.0, 1e-4) <= 1e-6


def test_check_derivative_at_symmetric_point():
    assert check_derivative(quad(), 50.0, 1e-4) <= 1e-9


def test_check_derivative_domain():
    with pytest.raises(ValueError):
        check_derivative(quad(), 0.0, 1e-3)  # z - h < 0
    with pytest.raises(ValueError):
        check_derivative(quad(), 1.0, 0.0)


def test_quadratic_maximum_bound():
    u = quad()
    grid = np.linspace(0.0, 200.0, 401)
    for z in grid:
        assert u.evaluate(float(z)) <= 15.0 + 1e-12
    # equality only at the optimum
    assert u.evaluate(50.0) == 15.0
    assert u.evaluate(49.999) < 15.0


def test_derivative_sign_matches_side_of_optimum():
    u = quad()
    for z in np.linspace(0.0, 120.0, 49):
        d = u.derivative(float(z))
        if z < 50.0:
            assert d > 0
        elif z > 50.0:
            assert d < 0
        else:
            assert d == 0.0


def test_concavity_on_sampled_triples():
    rng = np.random.default_rng(7)
    specs = [quad(), quad(80.0, 25.0), UtilitySpec.sqrt_monotone(3.0), UtilitySpec.sqrt_monotone(700.0)]
    for u in specs:
        for _ in range(200):
            a, b = sorted(rng.uniform(0.0, 150.0, size=2))
            t = float(rng.uniform(0.0, 1.0))
            mid = t * a + (1 - t) * b
            lhs = u.evaluate(mid)
            rhs = t * u.evaluate(a) + (1 - t) * u.evaluate(b)
            assert lhs >= rhs - 1e-9


def test_quadratic_second_difference_negative():
    u = quad()
    for z in np.linspace(1.0, 120.0, 25):
        step = 0.7
        second = u.evaluate(float(z + step)) - 2 * u.evaluate(float(z)) + u.evaluate(float(z - step))
        assert second < 0


def test_derivative_matches_central_difference_on_grid():
    # relative agreement away from the sqrt singularity
    rng = np.random.default_rng(11)
    specs = [quad(), quad(120.0, 7.0), UtilitySpec.sqrt_monotone(2.5), UtilitySpec.sqrt_monotone(900.0)]
    for u in specs:
        for z in rng.uniform(0.5, 200.0, size=50):
            z = float(z)
            d = u.derivative(z)
            fd = (u.evaluate(z + 1e-4) - u.evaluate(z - 1e-4)) / 2e-4
            assert abs(d - fd) <= max(1e-6 * max(abs(d), abs(fd)), 1e-9)


def test_sqrt_derivative_positive_and_strictly_decreasing():
    u = UtilitySpec.sqrt_monotone(3.0)
    grid = np.linspace(0.1, 300.0, 120)
    previous = math.inf
    for z in grid:
        d = u.derivative(float(z))
        assert d > 0
        assert d < previous
        previous = d


def test_serialization_round_trip():
    for u in [quad(), UtilitySpec.sqrt_monotone(3.25)]:
        assert UtilitySpec.from_dict(u.to_dict()) == u


def test_dict_omits_absent_fields():
    assert set(quad().to_dict()) == {"kind", "optimum", "curvature"}
    assert set(UtilitySpec.sqrt_monotone(1.0).to_dict()) == {"kind", "scale"}
