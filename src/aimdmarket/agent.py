"""The AIMD update with probabilistic back-off, applied to a population.

Suppliers and consumers run the same rule, differing only in parameters:
on a capacity signal an agent backs off (quantity *= beta) with
probability lambda = Gamma * u'(avg) / avg, where avg is its long-term
running average; otherwise it moves additively by +alpha while at or
below its private optimum and by -alpha above it.  Utilities without a
finite optimum always take the increase branch when not backed off.

Agents are coupled only through the one-bit side signal, so the rule runs
in lockstep on (agents x replicates) arrays.  Every operation is
elementwise and in the order of the one-agent formula, so each value is
bit-identical to evaluating the agents one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .utility import UtilityKind, UtilitySpec

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


@dataclass(frozen=True)
class RoleParams:
    """AIMD constants for one side of the market: the additive step alpha
    (> 0) and the multiplicative back-off factor beta in (0, 1).  The
    network constant Gamma is one per market, ``MarketConfig.gamma``;
    ``scenario.validate_config`` checks all three."""

    alpha: float
    beta: float


def update_running_average(prev_average, prev_rounds: int, new_quantity):
    """Extend a running mean of ``prev_rounds`` samples by one sample (floats or arrays)."""
    return (prev_average * prev_rounds + new_quantity) / (prev_rounds + 1)


def _column(values, dtype=float) -> np.ndarray:
    return np.array(values, dtype=dtype).reshape(-1, 1)


@dataclass(frozen=True, eq=False)
class Population:
    """Every agent's constants as (agents x 1) columns, suppliers first.

    Unused utility parameters hold neutral values: a sqrt agent's optimum
    is +inf, so the additive branch always increases it.
    """

    agent_ids: tuple[str, ...]
    roles: tuple[Role, ...]
    utilities: tuple[UtilitySpec, ...]
    num_suppliers: int
    is_sqrt: np.ndarray
    optimum: np.ndarray
    curvature: np.ndarray
    scale: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: float  # the market's one network constant

    @classmethod
    def build(cls, config: MarketConfig, scenario: ScenarioSpec) -> "Population":
        supplier, consumer = config.supplier_params, config.consumer_params
        agents = [(f"s{i}", Role.SUPPLIER, u, supplier) for i, u in enumerate(scenario.supplier_utilities)]
        agents += [(f"c{j}", Role.CONSUMER, u, consumer) for j, u in enumerate(scenario.consumer_utilities)]
        ids, roles, utilities, params = zip(*agents)
        sqrt = [u.kind is UtilityKind.SQRT_MONOTONE for u in utilities]
        return cls(
            ids,
            roles,
            utilities,
            len(scenario.supplier_utilities),
            is_sqrt=_column(sqrt, bool),
            optimum=_column([np.inf if s else u.optimum for s, u in zip(sqrt, utilities)]),
            curvature=_column([1.0 if s else u.curvature for s, u in zip(sqrt, utilities)]),
            scale=_column([u.scale if s else 1.0 for s, u in zip(sqrt, utilities)]),
            alpha=_column([p.alpha for p in params]),
            beta=_column([p.beta for p in params]),
            gamma=config.gamma,
        )

    def derivative(self, avg: np.ndarray) -> np.ndarray:
        """u'(avg) per agent, as ``UtilitySpec.derivative`` computes it.

        A sqrt agent's average is never 0: its quantity starts with an
        additive increase and stays positive.
        """
        marginal = -2.0 * (avg - self.optimum) / self.curvature
        np.divide(self.scale, 2.0 * np.sqrt(avg), out=marginal, where=self.is_sqrt)
        return marginal

    def backoff_probability(self, avg: np.ndarray, marginal: np.ndarray, signalled: np.ndarray) -> np.ndarray:
        """lambda = clamp(Gamma * u'(avg) / avg, 0, 1) for signalled agents
        with avg >= EPS_AVG, else 0.

        The clamp keeps a raw -0.0 as -0.0, as ``min(max(raw, 0.0), 1.0)``
        does; ``np.maximum`` would not.
        """
        lam = np.zeros(avg.shape)
        np.divide(self.gamma * marginal, avg, out=lam, where=signalled & (avg >= EPS_AVG))
        lam = np.where(0.0 > lam, 0.0, lam)
        return np.where(lam > 1.0, 1.0, lam)

    def move(self, quantity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Additive branch: +alpha at or below the optimum, else -alpha
        floored at 0.  Compares the quantity, not the running average."""
        increase = quantity <= self.optimum
        lowered = quantity - self.alpha
        moved = np.where(increase, quantity + self.alpha, np.where(lowered > 0.0, lowered, 0.0))
        return moved, np.where(increase, INCREASE, DECREASE_ADD)

    def update(self, quantity, avg, rounds: int, marginal, signalled, draws):
        """One round of the AIMD rule for every agent.

        ``marginal`` is u'(avg) at the pre-step average, ``signalled`` the
        side signal broadcast to each agent, ``draws`` one uniform variate
        per agent and ``rounds`` the number of samples in ``avg``.  Returns
        the new quantity and average, lambda, the Bernoulli bit and the
        branch code.
        """
        lam = self.backoff_probability(avg, marginal, signalled)
        bernoulli = draws < lam
        moved, branch = self.move(quantity)
        quantity = np.where(bernoulli, quantity * self.beta, moved)
        branch = np.where(bernoulli, DECREASE_MULT, branch)
        return quantity, update_running_average(avg, rounds, quantity), lam, bernoulli, branch
