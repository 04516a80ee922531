import math

import numpy as np
import pytest

from aimdmarket.scenario import MarketConfig, ScenarioMode, ScenarioSpec, validate_scenario
from aimdmarket.utility import UtilityColumns, UtilityKind, UtilitySpec, ordered_sum
from scalar_oracle import UnboundedDerivativeError, check_derivative, derivative, evaluate, ordered_sum as scalar_sum


def quad(optimum=50.0, curvature=10.0):
    return UtilitySpec.quadratic(optimum, curvature)


def array_forms(u, z):
    """u(z) and u'(z) at each of the values ``z``, by the array forms that a run evaluates."""
    columns = UtilityColumns.of([u])
    avg = np.array(z, dtype=float).reshape(1, -1)
    marginal = np.empty_like(avg)
    columns.bind_derivative()(avg, marginal, np.empty_like(avg))
    return columns.values(avg)[0], marginal[0]


def value(u, z):
    return array_forms(u, z)[0]


def slope(u, z):
    return array_forms(u, z)[1]


def test_evaluate_quadratic_at_optimum():
    assert value(quad(), [50.0]).tolist() == [15.0]  # 1.5 * curvature


def test_evaluate_quadratic_off_optimum():
    assert value(quad(), [40.0]) == pytest.approx([5.0])  # -100/10 + 15


def test_evaluate_sqrt():
    assert value(UtilitySpec.sqrt_monotone(3.0), [4.0]) == pytest.approx([6.0])


def test_evaluate_rejects_negative():
    # the oracle's scalar forms refuse a negative quantity; a run's averages are never negative
    with pytest.raises(ValueError):
        evaluate(quad(), -1.0)
    with pytest.raises(ValueError):
        evaluate(UtilitySpec.sqrt_monotone(3.0), -0.5)


def test_derivative_values():
    assert slope(quad(), [50.0, 25.0]).tolist() == pytest.approx([0.0, 5.0])  # -2*(-25)/10
    assert slope(quad(), [50.0])[0] == 0.0
    assert slope(UtilitySpec.sqrt_monotone(3.0), [4.0]) == pytest.approx([0.75])


def test_derivative_rejects_negative():
    with pytest.raises(ValueError):
        derivative(quad(), -2.0)


def test_sqrt_derivative_unbounded_at_zero():
    with pytest.raises(UnboundedDerivativeError):
        derivative(UtilitySpec.sqrt_monotone(3.0), 0.0)


def test_argmax():
    # a utility's finite maximum is at its optimum, which a sqrt utility leaves unset (validate_scenario
    # refuses one that sets it: test_construction_validation)
    assert quad().optimum == 50.0
    assert UtilitySpec.sqrt_monotone(3.0).optimum is None
    assert UtilitySpec.quadratic(0.0, 1.0).optimum == 0.0  # boundary optimum


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
    assert (value(u, np.linspace(0.0, 200.0, 401)) <= 15.0 + 1e-12).all()
    # equality only at the optimum
    assert value(u, [50.0]).tolist() == [15.0]
    assert value(u, [49.999])[0] < 15.0


def test_derivative_sign_matches_side_of_optimum():
    grid = np.linspace(0.0, 120.0, 49)
    d = slope(quad(), grid)
    assert (d[grid < 50.0] > 0).all() and (d[grid > 50.0] < 0).all()
    assert d[grid == 50.0].tolist() == [0.0]


def test_concavity_on_sampled_triples():
    rng = np.random.default_rng(7)
    specs = [quad(), quad(80.0, 25.0), UtilitySpec.sqrt_monotone(3.0), UtilitySpec.sqrt_monotone(700.0)]
    for u in specs:
        for _ in range(200):
            a, b = sorted(rng.uniform(0.0, 150.0, size=2))
            t = float(rng.uniform(0.0, 1.0))
            lhs, ua, ub = value(u, [t * a + (1 - t) * b, a, b])
            assert lhs >= t * ua + (1 - t) * ub - 1e-9


def test_quadratic_second_difference_negative():
    step = 0.7
    for z in np.linspace(1.0, 120.0, 25):
        above, at, below = value(quad(), [z + step, z, z - step])
        assert above - 2 * at + below < 0


def test_derivative_matches_central_difference_on_grid():
    # relative agreement away from the sqrt singularity
    rng = np.random.default_rng(11)
    specs = [quad(), quad(120.0, 7.0), UtilitySpec.sqrt_monotone(2.5), UtilitySpec.sqrt_monotone(900.0)]
    for u in specs:
        z = rng.uniform(0.5, 200.0, size=50)
        d = slope(u, z)
        fd = (value(u, z + 1e-4) - value(u, z - 1e-4)) / 2e-4
        assert (abs(d - fd) <= np.maximum(1e-6 * np.maximum(abs(d), abs(fd)), 1e-9)).all()


def test_sqrt_derivative_positive_and_strictly_decreasing():
    d = slope(UtilitySpec.sqrt_monotone(3.0), np.linspace(0.1, 300.0, 120))
    assert (d > 0).all() and (np.diff(d) < 0).all()


def test_serialization_round_trip():
    for u in [quad(), UtilitySpec.sqrt_monotone(3.25)]:
        assert UtilitySpec.from_dict(u.to_dict()) == u


def test_dict_omits_absent_fields():
    assert set(quad().to_dict()) == {"kind", "optimum", "curvature"}
    assert set(UtilitySpec.sqrt_monotone(1.0).to_dict()) == {"kind", "scale"}


# --- ordered_sum ------------------------------------------------------------------


@pytest.mark.parametrize("values, total", [
    ([], "0.0"),
    ([-0.0, -0.0], "0.0"),  # from +0.0, so a sum of -0.0 is +0.0
    ([1e16, 1.0, -1e16], "0.0"),  # uncompensated: math.fsum gives 1.0
    ([2**53 + 1, 1], "9007199254740992.0"),  # ints converted, then added
    ([math.inf, -math.inf], "nan"),  # quietly, as float arithmetic is
])
def test_ordered_sum_adds_left_to_right_from_zero(values, total):
    assert repr(ordered_sum(values)) == repr(scalar_sum(values)) == total


def test_ordered_sum_along_an_axis():
    rows = np.array([[-0.0, -0.0, -0.0], [1e16, 1.0, -1e16], [0.1, 0.2, 0.3]])
    assert repr(ordered_sum(rows, axis=1).tolist()) == repr([scalar_sum(row) for row in rows.tolist()])
    assert repr(ordered_sum(rows.T).tolist()) == repr([scalar_sum(row) for row in rows.tolist()])
