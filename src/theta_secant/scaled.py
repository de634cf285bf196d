"""Overflow-safe complex scalars: mantissa times exp(logscale).

Theta values are dominated by exp(pi*i*(Bm,m)) factors whose real exponents
easily exceed float range once arguments drift a few lattice cells out.
A ScaledComplex keeps the represented value as ``mantissa * exp(logscale)``
with ``|mantissa|`` renormalized into [1, e) (or exactly 0) after every
operation, so products of many thetas never overflow.

It is the return type of the public one-point views (theta.theta,
theta.theta_jet, Level2Vector.component) and the arithmetic of
theta-selftest.  The pipelines read the batched core's mantissa and
logscale arrays (theta.ThetaJets) instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericalError

_LOG_FLOOR = -745.0  # exp() underflows to 0 below this


@dataclass(frozen=True)
class ScaledComplex:
    mantissa: complex
    logscale: float = 0.0

    @staticmethod
    def make(mantissa: complex, logscale: float = 0.0) -> "ScaledComplex":
        """Construct with mantissa normalized into [1, e) or exact zero."""
        m = complex(mantissa)
        a = abs(m)
        if a == 0.0 or math.isinf(logscale) and logscale < 0:
            return ScaledComplex(0j, 0.0)
        try:
            shift = math.floor(math.log(a))
        except (ValueError, OverflowError) as exc:
            raise NumericalError(f"non-finite mantissa {m!r}") from exc
        if shift < -700:    # subnormal |m|: exp(-shift) would overflow
            half = math.exp(-0.5 * shift)
            return ScaledComplex(m * half * half, logscale + shift)
        return ScaledComplex(m * math.exp(-shift), logscale + shift)

    @staticmethod
    def from_complex(value: complex) -> "ScaledComplex":
        return ScaledComplex.make(value, 0.0)

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, 0.0)

    def is_zero(self) -> bool:
        return self.mantissa == 0

    # -- queries ---------------------------------------------------------

    def log_abs(self) -> float:
        """log|value|; -inf for zero."""
        if self.mantissa == 0:
            return float("-inf")
        return math.log(abs(self.mantissa)) + self.logscale

    def abs(self) -> float:
        """|value| as a float; may overflow to inf for huge scales."""
        la = self.log_abs()
        if la == float("-inf"):
            return 0.0
        if la > 709.0:
            return float("inf")
        return math.exp(la)

    def to_complex(self) -> complex:
        """Value as a plain complex; raises if it cannot be represented."""
        if self.mantissa == 0:
            return 0j
        if self.logscale > 700.0:
            raise OverflowError(f"logscale {self.logscale} too large for complex")
        return self.mantissa * math.exp(self.logscale) if self.logscale > _LOG_FLOOR else 0j

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ScaledComplex):
            return ScaledComplex.make(self.mantissa * other.mantissa,
                                      self.logscale + other.logscale)
        return ScaledComplex.make(self.mantissa * complex(other), self.logscale)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledComplex):
            if other.mantissa == 0:
                raise ZeroDivisionError("division by zero ScaledComplex")
            return ScaledComplex.make(self.mantissa / other.mantissa,
                                      self.logscale - other.logscale)
        return ScaledComplex.make(self.mantissa / complex(other), self.logscale)

    def __neg__(self):
        return ScaledComplex(-self.mantissa, self.logscale)

    def __add__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(complex(other))
        if self.mantissa == 0:
            return other
        if other.mantissa == 0:
            return self
        ref = max(self.logscale, other.logscale)
        da, db = self.logscale - ref, other.logscale - ref
        ma = self.mantissa * math.exp(da) if da > _LOG_FLOOR else 0j
        mb = other.mantissa * math.exp(db) if db > _LOG_FLOOR else 0j
        return ScaledComplex.make(ma + mb, ref)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(complex(other))
        return self + (-other)

    def rescaled(self, logscale: float) -> complex:
        """Mantissa relative to an externally chosen common logscale."""
        d = self.logscale - logscale
        if self.mantissa == 0 or d <= _LOG_FLOOR:
            return 0j
        return self.mantissa * math.exp(d)


def exp_scaled(arg: complex) -> ScaledComplex:
    """exp(arg) as a ScaledComplex, for any real part."""
    return ScaledComplex.make(cmath.exp(1j * arg.imag), arg.real)


def rel_diff(a: ScaledComplex, b: ScaledComplex, floor: float = 1e-300) -> float:
    """|a - b| / (|a| + |b| + floor), computed at a common scale."""
    ref = max(a.logscale if not a.is_zero() else -math.inf,
              b.logscale if not b.is_zero() else -math.inf)
    if ref == -math.inf:
        return 0.0
    ma, mb = a.rescaled(ref), b.rescaled(ref)
    return abs(ma - mb) / (abs(ma) + abs(mb) + floor)

