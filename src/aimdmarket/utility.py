"""Private agent utility functions: the one module that knows their formulas.

Two families are supported:

* ``quadratic`` -- g(z) = -(z - z*)^2 / h + 1.5*h, a concave parabola with
  its finite maximum 1.5*h at z*.  ``h`` is the width (curvature) parameter.
* ``sqrt_monotone`` -- f(z) = l * sqrt(z), strictly increasing and concave,
  with no finite maximum.

A ``UtilitySpec`` holds one agent's fields as given, with its dict I/O.
``scenario.validate_scenario`` checks them (a valid sqrt spec's ``optimum``
is None), so a config file's bad utilities join its other violations.
``UtilityColumns`` holds a population's fields as columns and evaluates
the family on arrays: the value (``values``) and, in place, the derivative
(``bind_derivative``) that the round step runs, each overflow a quiet +-inf.

A new family extends ``UtilityKind`` and this module, and also the field
table of ``scenario.validate_scenario``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np


def ordered_sum(values, axis: int = 0):
    """Floats (ints converted) added left to right from 0.0 along ``axis``: a float for a 1-D input,
    else an array.  This is the round loop's order on every Python version: ``np.sum`` adds pairwise
    and, from 3.12, ``sum`` of floats is compensated.  Overflow and inf - inf are quiet, as float
    arithmetic is."""
    values = np.asarray(values, dtype=float)
    if not values.shape[axis]:  # nothing added to 0.0
        total = np.zeros(np.delete(values.shape, axis))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            # 0.0 + x0 + x1 + ... differs from x0 + x1 + ... at most in the sign of a zero, which `+ 0.0` sets
            total = np.add.accumulate(values, axis).take(-1, axis) + 0.0
    return float(total) if total.ndim == 0 else total


class UtilityKind(str, Enum):
    QUADRATIC = "quadratic"
    SQRT_MONOTONE = "sqrt_monotone"


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

    def to_dict(self) -> dict:
        fields = {"optimum": self.optimum, "curvature": self.curvature, "scale": self.scale}
        return {"kind": self.kind.value, **{name: value for name, value in fields.items() if value is not None}}

    @classmethod
    def from_dict(cls, record: dict) -> "UtilitySpec":
        return cls(
            kind=UtilityKind(record["kind"]),
            optimum=record.get("optimum"),
            curvature=record.get("curvature"),
            scale=record.get("scale"),
        )


class UtilityColumns(NamedTuple):
    """The utilities of a population as (agents x 1) columns, in agent order, or broadcast to (agents x R).

    A field that an agent's kind leaves unset holds a neutral value: a sqrt agent's optimum is +inf, so
    its additive move always increases, and its curvature 1.0; a quadratic agent's scale is 1.0.  An
    optimum of -0.0 is stored as +0.0, so that z* - q is +0.0 at q = z*.  Each form below evaluates
    both kinds everywhere and keeps the sqrt form on the sqrt agents' entries, by the one-agent
    formula's operations in its order, so each value is bit-identical to evaluating the agents one at
    a time.
    """

    is_sqrt: np.ndarray
    optimum: np.ndarray
    curvature: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, utilities: Sequence[UtilitySpec]) -> "UtilityColumns":
        sqrt = [u.kind is UtilityKind.SQRT_MONOTONE for u in utilities]
        return cls(*(np.array(values, dtype).reshape(-1, 1) for values, dtype in (
            (sqrt, bool),
            ([np.inf if s else u.optimum + 0.0 for s, u in zip(sqrt, utilities)], float),
            ([1.0 if s else u.curvature for s, u in zip(sqrt, utilities)], float),
            ([u.scale if s else 1.0 for s, u in zip(sqrt, utilities)], float),
        )))

    def values(self, avg: np.ndarray) -> np.ndarray:
        """u(avg), with agents along the first axis of ``avg``.  The square of (z - z*) is libm ``pow``
        value by value, as ``** 2`` on a float is: ``d * d``, ``np.square`` and ``np.power`` each
        differ from it on some values.  If a square passes the largest float, where ``** 2`` raises,
        every square is +inf and every quadratic value -inf, as other overflows are quiet +-inf."""
        gaps = (avg - self.optimum).ravel().tolist()
        try:
            squares = np.fromiter(map(math.pow, gaps, repeat(2.0)), float, len(gaps)).reshape(avg.shape)
        except OverflowError:
            squares = np.full(avg.shape, math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(self.is_sqrt, self.scale * np.sqrt(avg), -squares / self.curvature + 1.5 * self.curvature)

    def bind_derivative(self):
        """``derivative(avg, out, scratch)``: u'(avg) written to ``out`` in place, with a float
        ``scratch`` array of ``avg``'s shape, to which the columns broadcast.  The operands and
        ufuncs are bound once, so a caller that runs it every round looks nothing up.  At avg = 0
        a sqrt agent's u' is unbounded and divides by 0, so the caller ignores divide errors; the
        kernel never reads it there."""
        is_sqrt, optimum, curvature, scale = self
        minus_two, two = np.full(optimum.shape, -2.0), np.full(optimum.shape, 2.0)
        has_sqrt = bool(is_sqrt.any())
        subtract, multiply, divide, copyto, sqrt = np.subtract, np.multiply, np.divide, np.copyto, np.sqrt

        def derivative(avg, out, scratch) -> None:
            # -2 (avg - z*) / h, or scale / (2 sqrt(avg)) on the sqrt agents' entries
            subtract(avg, optimum, out)
            multiply(minus_two, out, out)
            divide(out, curvature, out)
            if has_sqrt:
                sqrt(avg, scratch)
                multiply(two, scratch, scratch)
                divide(scale, scratch, scratch)
                copyto(out, scratch, where=is_sqrt)

        return derivative
