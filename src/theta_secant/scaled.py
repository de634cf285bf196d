"""Overflow-safe complex scalars: mantissa times exp(logscale).

Theta values are dominated by exp(pi*i*(Bm,m)) factors whose real exponents
easily exceed float range once arguments drift a few lattice cells out.
A ScaledComplex keeps the represented value as ``mantissa * exp(logscale)``
with ``|mantissa|`` normalized into [1, e) (or exactly 0).

It is only the return type of the public one-point views (theta.theta and
theta.theta_jet); the scenarios and pipelines read the batched core's
mantissa and logscale arrays (theta.ThetaJets) instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NumericalError


class ScaledComplex(NamedTuple):
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
