"""Unit-modulus signature groups: the circle S^1 and its cyclic subgroups S^1_k.

Cyclic elements are stored as exact integer exponents mod k so that group
products and distances like |1 - xi^j| never accumulate float error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import MagnetoError

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-12

CYCLIC = "cyclic"
CIRCLE = "circle"


@dataclass(frozen=True)
class GroupElement:
    """Element of S^1 (``kind="circle"``) or S^1_k (``kind="cyclic"``).

    Cyclic: ``exponent`` j with 0 <= j < ``order`` k, representing e^{2*pi*i*j/k}.
    Circle: ``angle`` in [0, 2*pi), representing e^{i*angle}.
    """

    kind: str
    exponent: int = 0
    order: int = 1
    angle: float = 0.0

    @staticmethod
    def cyclic(exponent: int, order: int) -> "GroupElement":
        if order < 1:
            raise MagnetoError("BAD_GROUP", f"cyclic order must be >= 1, got {order}")
        return GroupElement(CYCLIC, exponent=exponent % order, order=order)

    @staticmethod
    def circle(angle: float) -> "GroupElement":
        if not math.isfinite(angle):
            raise MagnetoError("NONFINITE_ANGLE", f"circle angle must be finite, got {angle}")
        return GroupElement(CIRCLE, angle=angle % TWO_PI)

    @staticmethod
    def identity(kind: str, order: int = 1) -> "GroupElement":
        if kind == CYCLIC:
            return GroupElement.cyclic(0, order)
        return GroupElement.circle(0.0)

    # -- group structure ----------------------------------------------------

    def same_group(self, other: "GroupElement") -> bool:
        if self.kind != other.kind:
            return False
        return self.kind == CIRCLE or self.order == other.order

    def _require_same_group(self, other: "GroupElement") -> None:
        if not self.same_group(other):
            raise MagnetoError(
                "MIXED_GROUPS",
                f"cannot combine {self.describe()} with {other.describe()}",
            )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_group(other)
        if self.kind == CYCLIC:
            return GroupElement.cyclic(self.exponent + other.exponent, self.order)
        return GroupElement.circle(self.angle + other.angle)

    def inverse(self) -> "GroupElement":
        if self.kind == CYCLIC:
            return GroupElement.cyclic(-self.exponent, self.order)
        return GroupElement.circle(-self.angle)

    # -- values and metrics -------------------------------------------------

    def value(self) -> complex:
        if self.kind == CYCLIC:
            return cmath.exp(2j * math.pi * self.exponent / self.order)
        return cmath.exp(1j * self.angle)

    def dist_to_one(self) -> float:
        """|1 - g| without a complex round-trip: 2 sin(pi j / k) resp. 2|sin(a/2)|."""
        if self.kind == CYCLIC:
            return 2.0 * math.sin(math.pi * self.exponent / self.order)
        return 2.0 * abs(math.sin(self.angle / 2.0))

    def is_identity(self, tol: float = ANGLE_TOL) -> bool:
        if self.kind == CYCLIC:
            return self.exponent == 0
        a = self.angle % TWO_PI
        return min(a, TWO_PI - a) <= tol

    def isclose(self, other: "GroupElement", tol: float = ANGLE_TOL) -> bool:
        self._require_same_group(other)
        return (self * other.inverse()).is_identity(tol)

    def describe(self) -> str:
        if self.kind == CYCLIC:
            return f"xi^{self.exponent} (k={self.order})"
        return f"e^(i*{self.angle:.12g})"
