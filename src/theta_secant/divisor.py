"""Theta-divisor sampling and the on-divisor identity residuals.

Divisor access is one-dimensional: seeded complex lines Z(s) = Z0 + s*D
are scanned for zeros of s -> theta(Z(s)) by argument-principle winding
counts on an 8 x 8 cell grid over the unit square of s, and every winding
cell seeds a Newton refinement using the analytic directional derivative.
All "how small is theta" questions use the lattice-invariant normalized
modulus |theta| * exp(-pi * Im z . (Im B)^-1 . Im z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RootSearchFailed, ValidationError
from .rng import Xoshiro256
from .scaled import rel_diff
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    normalized_log_abs,
    normalized_log_abs_many,
    theta_jet,
    theta_jets,
    truncation_radius,
)

NEWTON_TARGET = 1e-10
DEDUPE_DISTANCE = 1e-6


@dataclass(frozen=True)
class DivisorSample:
    """A located theta zero: point, residual modulus, generating line."""

    Z: np.ndarray
    theta_abs: float
    line_seed: int


# ----------------------------------------------------------------------
# line root finding
# ----------------------------------------------------------------------

class _Line:
    """Evaluation helpers along Z(s) = Z0 + s D."""

    def __init__(self, Z0, D, B, tol):
        self.Z0, self.D, self.B, self.tol = Z0, D, B, tol
        self._phase_cache: dict = {}

    def jet(self, s: complex):
        return theta_jet(self.Z0 + s * self.D, self.B, dirs=(self.D,), tol=self.tol)

    def seed_phases(self, ss) -> None:
        """Phases of theta at every s in ss, from one lattice pass, into the cache."""
        J = theta_jets(self.Z0 + np.multiply.outer(ss, self.D), self.B, tol=self.tol)
        self._phase_cache.update(zip(ss, np.angle(J.sums["f"]).tolist()))

    def phase(self, s: complex) -> float:
        if s not in self._phase_cache:
            self.seed_phases([s])
        return self._phase_cache[s]

    def hat_abs(self, s: complex) -> float:
        j = theta_jet(self.Z0 + s * self.D, self.B, tol=self.tol)
        return math.exp(normalized_log_abs(j["f"], self.B, self.Z0 + s * self.D))


def _wrap(d: float) -> float:
    while d > math.pi:
        d -= 2.0 * math.pi
    while d <= -math.pi:
        d += 2.0 * math.pi
    return d


def _edge_increment(line: _Line, s0: complex, s1: complex, depth: int = 0) -> float:
    d = _wrap(line.phase(s1) - line.phase(s0))
    if abs(d) > 1.2 and depth < 7:
        mid = 0.5 * (s0 + s1)
        return (_edge_increment(line, s0, mid, depth + 1)
                + _edge_increment(line, mid, s1, depth + 1))
    return d


def _newton(line: _Line, s: complex, max_iter: int = 60):
    for _ in range(max_iter):
        j = line.jet(s)
        f, df = j["f"], j["d0"]
        if df.is_zero():
            return None
        la = normalized_log_abs(f, line.B, line.Z0 + s * line.D)
        if la != -math.inf and math.exp(la) <= NEWTON_TARGET:
            return s
        step = f / df
        try:
            ds = step.to_complex()
        except OverflowError:
            return None
        if abs(ds) > 0.7:
            ds *= 0.7 / abs(ds)
        s = s - ds
        if abs(s) > 4.0:
            return None
    return None


def line_roots(Z0, D, B: PeriodMatrix, tol: float = DEFAULT_TOL,
               grid: int = 8, box: float = 1.0) -> list:
    """Roots of s -> theta(Z0 + sD) inside the [-box, box]^2 square of s.

    Argument-principle winding counts over grid x grid cells isolate the
    candidates; Newton with the analytic derivative polishes each one.
    """
    line = _Line(np.asarray(Z0, complex), np.asarray(D, complex), B, tol)
    nodes = np.linspace(-box, box, grid + 1)
    line.seed_phases([complex(x, y) for y in nodes for x in nodes])
    # phase increments per horizontal/vertical edge, evaluated once
    horiz = {}
    vert = {}
    for iy, y in enumerate(nodes):
        for ix in range(grid):
            horiz[(ix, iy)] = _edge_increment(
                line, complex(nodes[ix], y), complex(nodes[ix + 1], y))
    for ix, x in enumerate(nodes):
        for iy in range(grid):
            vert[(ix, iy)] = _edge_increment(
                line, complex(x, nodes[iy]), complex(x, nodes[iy + 1]))
    roots = []
    for ix in range(grid):
        for iy in range(grid):
            total = (horiz[(ix, iy)] + vert[(ix + 1, iy)]
                     - horiz[(ix, iy + 1)] - vert[(ix, iy)])
            if round(total / (2.0 * math.pi)) == 0:
                continue
            center = complex(0.5 * (nodes[ix] + nodes[ix + 1]),
                             0.5 * (nodes[iy] + nodes[iy + 1]))
            s = _newton(line, center)
            if s is not None:
                roots.append(s)
    return roots


def sample_theta_divisor(B: PeriodMatrix, seed: int, count: int,
                         tol: float = DEFAULT_TOL) -> list:
    """Seeded, deduplicated theta-divisor samples (normalized |theta| <= 1e-10)."""
    if count > 10 ** 4:
        raise ValidationError("count exceeds 1e4")
    if count == 0:
        return []
    rng = Xoshiro256(seed)
    samples = []
    for trial in range(100 * count):
        Z0 = np.array(rng.complex_vector(B.g, scale=0.45))
        D = np.array(rng.complex_vector(B.g))
        D = D / np.linalg.norm(D)
        line = _Line(Z0, D, B, tol)
        for s in line_roots(Z0, D, B, tol=tol):
            Z = Z0 + s * D
            # distinct as points of C^g; at g=1 all divisor points coincide
            # mod lattice, so reduced distance would never admit a second one
            if any(float(np.linalg.norm(Z - s2.Z)) <= DEDUPE_DISTANCE
                   for s2 in samples):
                continue
            samples.append(DivisorSample(Z, line.hat_abs(s), trial))
            if len(samples) >= count:
                return samples
    raise RootSearchFailed(
        f"found {len(samples)} of {count} requested divisor samples")


def verify_sample(sample: DivisorSample, B: PeriodMatrix,
                  tol: float = DEFAULT_TOL, radius_boost: int = 2) -> float:
    """Re-evaluate |theta| at the sample with a boosted truncation radius."""
    from .theta import ThetaRequest, theta, lattice_reduce
    zr = lattice_reduce(sample.Z, B)
    r = truncation_radius(B, zr, tol)
    val = theta(ThetaRequest(sample.Z, B, None, (), tol), radius=radius_boost * r)
    return math.exp(normalized_log_abs(val, B, sample.Z))


# ----------------------------------------------------------------------
# identity residuals on the divisor
# ----------------------------------------------------------------------

def _zpoint(Zs):
    return Zs.Z if isinstance(Zs, DivisorSample) else np.atleast_1d(np.asarray(Zs, complex))


def residual_cm7(Zs, U, V, B: PeriodMatrix, tol: float = DEFAULT_TOL) -> float:
    """Tangency identity residual at a divisor point.

    Compares d_V[theta(Z+U) theta(Z-U)] * d_V theta(Z) against
    theta(Z+U) theta(Z-U) * d^2_VV theta(Z), as a relative gap.
    """
    Z = _zpoint(Zs)
    U = np.atleast_1d(np.asarray(U, complex))
    V = np.atleast_1d(np.asarray(V, complex))
    # Z +- U in one pass; Z alone, since its 2-jet needs a larger radius
    J = theta_jets([Z + U, Z - U], B, dirs=(V,), tol=tol)
    jp, jm = J.jet(0), J.jet(1)
    jz = theta_jet(Z, B, dirs=(V, V), tol=tol)
    lhs = (jp["d0"] * jm["f"] + jp["f"] * jm["d0"]) * jz["d0"]
    rhs = jp["f"] * jm["f"] * jz["d01"]
    return rel_diff(lhs, rhs)


def residual_cm7d(Zs, U, V, B: PeriodMatrix, tol: float = DEFAULT_TOL) -> float:
    """Three-term discrete identity residual at a divisor point.

    Relative size of theta(Z+U)theta(Z-V)theta(Z-U+V)
                   + theta(Z-U)theta(Z+V)theta(Z+U-V).
    """
    Z = _zpoint(Zs)
    U = np.atleast_1d(np.asarray(U, complex))
    V = np.atleast_1d(np.asarray(V, complex))
    J = theta_jets([Z + U, Z - V, Z - U + V, Z - U, Z + V, Z + U - V], B, tol=tol)
    f = [J.jet(p)["f"] for p in range(6)]
    return rel_diff(f[0] * f[1] * f[2], -(f[3] * f[4] * f[5]))


def singular_locus_probe(Zs, U, V, B: PeriodMatrix, K: int,
                         tol: float = DEFAULT_TOL) -> float:
    """max over |k| <= K of the normalized |theta(Z + k(U-V))|.

    A value well above zero certifies the sample is not on the maximal
    (U-V)-shift-invariant subset of the divisor, to depth K.  K = 0
    degenerates to the divisor membership itself.
    """
    if K < 0:
        raise ValidationError("K must be >= 0")
    Z = _zpoint(Zs)
    U = np.atleast_1d(np.asarray(U, complex))
    V = np.atleast_1d(np.asarray(V, complex))
    W = [Z + k * (U - V) for k in range(-K, K + 1)]
    J = theta_jets(W, B, tol=tol)
    return float(np.exp(normalized_log_abs_many(J, B, W)).max())
