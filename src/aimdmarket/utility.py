"""Private agent utility functions: value, first derivative, and optimum.

Two families are supported:

* ``quadratic`` -- g(z) = -(z - z*)^2 / h + 1.5*h, a concave parabola with
  its finite maximum 1.5*h at z*.  ``h`` is the width (curvature) parameter.
* ``sqrt_monotone`` -- f(z) = l * sqrt(z), strictly increasing and concave,
  with no finite maximum.

The enumeration is open-ended: new families plug in by extending
``UtilityKind`` and the three evaluation methods, without touching agents.
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
    clamp, e.g. the agent back-off rule maps it to probability 1.
    """


@dataclass(frozen=True)
class UtilitySpec:
    """Parameters of one agent's private utility function.

    Exactly the fields relevant to ``kind`` are set: quadratic uses
    ``optimum`` and ``curvature``, sqrt_monotone uses ``scale``.
    Instances are immutable and safe to share across threads.
    """

    kind: UtilityKind
    optimum: Optional[float] = None
    curvature: Optional[float] = None
    scale: Optional[float] = None

    def __post_init__(self):
        if self.kind is UtilityKind.QUADRATIC:
            if self.optimum is None or self.optimum < 0:
                raise ValueError("quadratic utility needs a nonnegative optimum")
            if self.curvature is None or self.curvature <= 0:
                raise ValueError("quadratic utility needs a positive curvature")
            if self.scale is not None:
                raise ValueError("scale is a sqrt_monotone parameter")
        elif self.kind is UtilityKind.SQRT_MONOTONE:
            if self.scale is None or self.scale <= 0:
                raise ValueError("sqrt_monotone utility needs a positive scale")
            if self.optimum is not None or self.curvature is not None:
                raise ValueError("optimum/curvature are quadratic parameters")
        else:  # pragma: no cover - enum is closed for now
            raise ValueError(f"unknown utility kind: {self.kind}")

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


def check_derivative(u: UtilitySpec, z: float, h: float) -> float:
    """Absolute gap between the analytic derivative and a central difference.

    Test oracle: returns |u'(z) - (u(z+h) - u(z-h)) / (2h)|.
    Requires z - h >= 0 and h > 0.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if z - h < 0:
        raise ValueError("z - h must stay in the domain")
    finite_diff = (u.evaluate(z + h) - u.evaluate(z - h)) / (2.0 * h)
    return abs(u.derivative(z) - finite_diff)
