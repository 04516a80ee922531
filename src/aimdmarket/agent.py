"""The AIMD update with probabilistic back-off, applied to a population.

Suppliers and consumers run the same rule, differing only in parameters:
on a capacity signal an agent backs off (quantity *= beta) with
probability lambda = Gamma * u'(avg) / avg, where avg is its long-term
running average; otherwise it moves additively by +alpha while at or
below its private optimum and by -alpha above it.  Utilities without a
finite optimum always take the increase branch when not backed off.

Agents are coupled only through the one-bit side signal, so the rule runs
in lockstep on (agents x replicates) arrays, in place, as one round step
function that ``Population.bind_step(replicates)`` hands out with the
population's columns broadcast to that shape and its constants and ufuncs
bound; ``simulate`` and the oracle parity tests call that same function.
A run does not store the recorded lambda or the branch code:
``metrics.derived_columns`` derives them from the state entering each
round (``Population.recorded``).  Every operation is elementwise and in
the order of the one-agent formula, so each value is bit-identical to
evaluating the agents one at a time.  The step skips the guards that
cannot act: the floor at 0, if every optimum is at least its alpha (then
q - alpha >= z* - alpha >= 0), and, where its caller asks, the EPS_AVG
guard (on averages that are all at least EPS_AVG).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .utility import UtilityColumns, UtilitySpec

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import MarketConfig, ScenarioSpec

# Below this running average the back-off probability is defined as 0:
# an agent with no history does not back off (avoids 0/0 at cold start).
EPS_AVG = 1e-9


class Role(str, Enum):
    SUPPLIER = "supplier"
    CONSUMER = "consumer"


class Branch(str, Enum):
    MULTIPLICATIVE_DECREASE = "multiplicative_decrease"
    ADDITIVE_INCREASE = "additive_increase"
    ADDITIVE_DECREASE = "additive_decrease"


BRANCHES = tuple(Branch)  # the arrays hold branch codes indexing this
DECREASE_MULT, INCREASE, DECREASE_ADD = range(3)


@dataclass(frozen=True, eq=False)
class Population:
    """Every agent's constants as (agents x 1) columns, suppliers first."""

    agent_ids: tuple[str, ...]
    roles: tuple[Role, ...]
    utilities: tuple[UtilitySpec, ...]
    num_suppliers: int
    family: UtilityColumns
    alpha: np.ndarray
    beta: np.ndarray
    gamma: float  # the market's one network constant

    @classmethod
    def build(cls, config: MarketConfig, scenario: ScenarioSpec) -> "Population":
        agents = [(f"s{i}", Role.SUPPLIER, u, config.alpha_s, config.beta_s)
                  for i, u in enumerate(scenario.supplier_utilities)]
        agents += [(f"c{j}", Role.CONSUMER, u, config.alpha_c, config.beta_c)
                   for j, u in enumerate(scenario.consumer_utilities)]
        ids, roles, utilities, alpha, beta = zip(*agents)
        return cls(ids, roles, utilities, len(scenario.supplier_utilities), UtilityColumns.of(utilities),
                   *(np.array(column, dtype=float).reshape(-1, 1) for column in (alpha, beta)), config.gamma)

    def bind_step(self, replicates: int):
        """The round step on (agents x ``replicates``) arrays, with this population's columns broadcast to
        that shape and its scalar operands as arrays of it, so that its ufuncs run on same-shape arrays, and
        with the ufuncs bound once, so that ``simulate``'s per-round loop looks nothing up.

        ``step(before, after, samples, signalled, draws, scratch, guarded=True)`` runs under ``np.errstate``
        ignoring divide, invalid and over: from ``before`` = (quantity, average, u'(average)), an average of t
        samples, ``samples`` = (t, t + 1) as floats or 0-d float arrays (``simulate``'s, which no ufunc
        converts), each agent's side signal and one draw in [0, 1) each, it writes ``after`` = (quantity,
        average, u'(average), Bernoulli bit) in place, with (float, bool) ``scratch`` arrays.  The raw
        lambda Gamma u'(avg) / avg, held in the float scratch until the Bernoulli bit is drawn, is
        unclamped and arbitrary unless signalled and avg >= EPS_AVG (see ``recorded``); there
        a draw is below it exactly when below its clamp to [0, 1], -0.0 and NaN included.  With
        ``guarded`` false the step skips the avg >= EPS_AVG test, which changes no bit where every average
        is at least EPS_AVG.  The quantity entering the step must be >= 0, as a validated initial quantity
        is and the step keeps it: then q + alpha > 0, and the floor of q - alpha at 0 runs only if some
        agent's optimum is below its alpha (else q - alpha >= z* - alpha >= 0).  u'(average) is
        ``UtilityColumns.bind_derivative``'s; a sqrt agent's average is never 0, as its quantity starts
        with +alpha and stays positive."""
        shape = (len(self.agent_ids), replicates)
        *family, alpha, beta = (np.ascontiguousarray(np.broadcast_to(value, shape))
                                for value in (*self.family, self.alpha, self.beta))
        family = UtilityColumns(*family)
        optimum, derivative = family.optimum, family.bind_derivative()
        zero, eps_avg, gamma = (np.full(shape, c) for c in (0.0, EPS_AVG, self.gamma))
        floored = not (self.family.optimum >= self.alpha).all()  # a sqrt agent's +inf optimum counts
        subtract, copysign, add, maximum, multiply, divide, less, logical_and, greater_equal, putmask = (
            np.subtract, np.copysign, np.add, np.maximum, np.multiply, np.divide, np.less, np.logical_and,
            np.greater_equal, np.putmask)

        def step(before, after, samples, signalled, draws, scratch, guarded=True) -> None:
            quantity, avg, marginal = before
            count, next_count = samples
            new_quantity, new_avg, new_marginal, bernoulli = after
            floats, flags = scratch
            # +alpha at or below the optimum (z* - q is +0.0 at q = z*, as UtilityColumns stores an optimum
            # of -0.0 as +0.0, and +inf for a sqrt agent), else q - alpha, floored at 0 if some optimum is below
            # its alpha; q is never NaN, alpha > 0
            subtract(optimum, quantity, new_quantity)
            copysign(alpha, new_quantity, new_quantity)
            add(quantity, new_quantity, new_quantity)
            if floored:
                maximum(new_quantity, zero, out=new_quantity)  # numpy deprecates a positional out for maximum
            multiply(gamma, marginal, floats)  # the raw lambda
            divide(floats, avg, floats)
            less(draws, floats, bernoulli)
            logical_and(bernoulli, signalled, bernoulli)
            if guarded:
                greater_equal(avg, eps_avg, flags)
                logical_and(bernoulli, flags, bernoulli)
            multiply(quantity, beta, floats)
            putmask(new_quantity, bernoulli, floats)
            # the running average of count + 1 samples: (avg * count + quantity) / (count + 1)
            multiply(avg, count, new_avg)
            add(new_avg, new_quantity, new_avg)
            divide(new_avg, next_count, new_avg)
            derivative(new_avg, new_marginal, floats)

        return step

    def recorded(self, quantity, avg, marginal, signalled, bernoulli) -> tuple[np.ndarray, np.ndarray]:
        """The recorded lambda and branch code of each step (agents along the last axis), from the quantity,
        average and u'(average) entering it, its side signal and its Bernoulli bit.  lambda is Gamma u'(avg)
        / avg if signalled and avg >= EPS_AVG, else 0, then clamped to [0, 1] as ``min(max(raw, 0.0), 1.0)``
        does: a raw -0.0 stays -0.0 and NaN stays NaN."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as the round step runs
            lam = self.gamma * marginal / avg
            np.copyto(lam, 0.0, where=(lam < 0.0) | ~signalled | (avg < EPS_AVG))
            np.copyto(lam, 1.0, where=lam > 1.0)
        codes = np.where(quantity <= self.family.optimum.T, INCREASE, DECREASE_ADD)
        codes[bernoulli] = DECREASE_MULT
        return lam, codes
