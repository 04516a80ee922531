"""One round step of the array kernel against the scalar oracle, on generated states.

Kept apart from ``test_parity`` so that an environment without Hypothesis
still collects and runs the other oracle parity tests.
"""

from hypothesis import given, settings, strategies as st

from aimdmarket.agent import EPS_AVG, Role
from aimdmarket.utility import UtilitySpec
from scalar_oracle import AgentState, RoleParams, step
from test_parity import _kernel_step

_AMOUNTS = st.floats(0.0, 1e4)
_EDGES = (0.0, EPS_AVG / 2, EPS_AVG)


@st.composite
def _step_inputs(draw):
    if draw(st.booleans()):
        utility = UtilitySpec.sqrt_monotone(draw(st.floats(1e-2, 1e4)))
        quantity = draw(_AMOUNTS | st.sampled_from(_EDGES))
        avg = draw(st.floats(1e-6, 1e4))  # a sqrt agent's average is never 0
    else:
        # validate_scenario accepts an optimum of -0.0 (-0.0 >= 0)
        utility = UtilitySpec.quadratic(draw(_AMOUNTS | st.just(-0.0)), draw(st.floats(1e-2, 1e3)))
        values = _AMOUNTS | st.sampled_from(_EDGES + (utility.optimum,))
        quantity, avg = draw(values), draw(values)
    params = RoleParams(draw(st.floats(0.0, 50.0, exclude_min=True)),
                        draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)), draw(st.floats(0.0, 10.0)))
    state = AgentState("s0", Role.SUPPLIER, quantity, avg, draw(st.integers(0, 10**4)), utility)
    return state, draw(st.sampled_from((0, 1))), params, draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_step_inputs())
def test_step_matches_oracle_property(inputs):
    new, trace = step(*inputs)
    expected = (new.quantity, new.running_average, trace.backoff_probability, trace.bernoulli, trace.branch)
    assert repr(_kernel_step(*inputs)) == repr(expected)
