"""Private agent utility functions: value, first derivative, and optimum.

Two families are supported:

* ``quadratic`` -- g(z) = -(z - z*)^2 / h + 1.5*h, a concave parabola with
  its finite maximum 1.5*h at z*.  ``h`` is the width (curvature) parameter.
* ``sqrt_monotone`` -- f(z) = l * sqrt(z), strictly increasing and concave,
  with no finite maximum.

A ``UtilitySpec`` holds its fields as given; ``scenario.validate_scenario``
checks them, so a config file's bad utilities are reported with the rest
of its violations.

A new family extends ``UtilityKind`` and the methods here, and also the
array forms that branch on the sqrt kind: ``agent.Population.build``, the
derivative in its ``bind_step``, ``metrics.Trajectory.utility_value``, and
the field table of ``scenario.validate_scenario``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional


def ordered_sum(values) -> float:
    """Add floats left to right from 0.0, the array kernel's order, on every
    Python version (from 3.12, ``sum`` of floats is compensated)."""
    return functools.reduce(operator.add, values, 0.0)


class UtilityKind(str, Enum):
    QUADRATIC = "quadratic"
    SQRT_MONOTONE = "sqrt_monotone"


class UnboundedDerivativeError(ArithmeticError):
    """The derivative diverges at the requested point (sqrt family at z=0).

    Raised instead of returning a sentinel so that callers decide how to
    clamp.  The array kernel never meets it: a sqrt agent's running
    average stays positive.
    """


@dataclass(frozen=True)
class UtilitySpec:
    """Parameters of one agent's private utility function.

    Exactly the fields relevant to ``kind`` are set: quadratic uses
    ``optimum`` and ``curvature``, sqrt_monotone uses ``scale``.  Nothing
    is checked on construction; ``scenario.validate_scenario`` checks the
    fields before a run.  Instances are immutable and safe to share across
    threads.
    """

    kind: UtilityKind
    optimum: Optional[float] = None
    curvature: Optional[float] = None
    scale: Optional[float] = None

    @classmethod
    def quadratic(cls, optimum: float, curvature: float) -> "UtilitySpec":
        return cls(UtilityKind.QUADRATIC, optimum=optimum, curvature=curvature)

    @classmethod
    def sqrt_monotone(cls, scale: float) -> "UtilitySpec":
        return cls(UtilityKind.SQRT_MONOTONE, scale=scale)

    def evaluate(self, z: float) -> float:
        """Utility value at quantity ``z >= 0``."""
        if z < 0:
            raise ValueError(f"quantity must be nonnegative, got {z}")
        if self.kind is UtilityKind.QUADRATIC:
            return -((z - self.optimum) ** 2) / self.curvature + 1.5 * self.curvature
        return self.scale * math.sqrt(z)

    def derivative(self, z: float) -> float:
        """Marginal utility at ``z``.

        The sqrt family has an unbounded derivative at z=0; that point
        raises :class:`UnboundedDerivativeError`.
        """
        if z < 0:
            raise ValueError(f"quantity must be nonnegative, got {z}")
        if self.kind is UtilityKind.QUADRATIC:
            return -2.0 * (z - self.optimum) / self.curvature
        if z == 0:
            raise UnboundedDerivativeError("sqrt utility has infinite slope at 0")
        return self.scale / (2.0 * math.sqrt(z))

    def argmax(self) -> Optional[float]:
        """Location of the finite maximum, or None when none exists."""
        if self.kind is UtilityKind.QUADRATIC:
            return self.optimum
        return None

    def to_dict(self) -> dict:
        record = {"kind": self.kind.value}
        if self.optimum is not None:
            record["optimum"] = self.optimum
        if self.curvature is not None:
            record["curvature"] = self.curvature
        if self.scale is not None:
            record["scale"] = self.scale
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "UtilitySpec":
        return cls(
            kind=UtilityKind(record["kind"]),
            optimum=record.get("optimum"),
            curvature=record.get("curvature"),
            scale=record.get("scale"),
        )
