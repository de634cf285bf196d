"""Theta-divisor sampling and the on-divisor identity residuals.

Divisor access is one-dimensional: seeded complex lines Z(s) = Z0 + s*D
are scanned for zeros of s -> theta(Z(s)) by argument-principle winding
counts on an 8 x 8 cell grid over the square |Re s|, |Im s| <= 1, and
every winding cell seeds a Newton refinement using the analytic
directional derivative.  The phases at the grid nodes come from one
lattice pass; every edge piece whose phase turns by more than 1.2 is
bisected, up to depth 7, and each bisection round is one more pass.  The
Newton refinements of one line run in lockstep: one pass per iteration
over the cells still refining.
All "how small is theta" questions use the lattice-invariant normalized
modulus |theta| * exp(-pi * Im z . (Im B)^-1 . Im z).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import RootSearchFailed, ValidationError
from .rng import Xoshiro256
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    _as_points,
    as_vector,
    normalized_log_abs_many,
    rescale,
    theta_jets,
    truncation_radius,
)

NEWTON_TARGET = 1e-10
NEWTON_MAX_ITER = 60
DEDUPE_DISTANCE = 1e-6
GRID = 8                      # winding-count cells per side of the s square
MAX_PROBE_DEPTH = 1000        # a probe is one pass of 2K + 1 points


class DivisorSample(NamedTuple):
    """A located theta zero: point and residual modulus."""

    Z: np.ndarray
    theta_abs: float


# ----------------------------------------------------------------------
# line root finding
# ----------------------------------------------------------------------

def _phases(Z0, D, B: PeriodMatrix, ss) -> np.ndarray:
    """Phases of theta at Z0 + s D for every s in ss, from one lattice pass."""
    return np.angle(theta_jets(Z0 + np.multiply.outer(ss, D), B).sums["f"])


def _newton(Z0, D, B: PeriodMatrix, starts: list) -> list:
    """Newton from every start s in lockstep, one lattice pass per iteration
    over the runs still going: per start, (s, normalized |theta| at
    Z0 + s D) of its converged pass, or None.

    Each run is bitwise what it would be alone: the rows of a pass are
    (see theta_jets), so are those of normalized_log_abs_many, and each
    row is formed and stepped by itself with Python's math.exp and abs,
    which an array's exp and abs would not match.
    """
    s = list(starts)
    found = [None] * len(s)
    going = list(range(len(s)))
    for _ in range(NEWTON_MAX_ITER):
        if not going:
            break
        Z = np.array([Z0 + s[i] * D for i in going])
        J = theta_jets(Z, B, dirs=(D,))
        f, d0 = J.sums["f"], J.sums["d0"]
        la = normalized_log_abs_many(J, B, Z)
        still = []
        for row, i in enumerate(going):
            modulus = math.exp(la[row])
            if la[row] != -math.inf and modulus <= NEWTON_TARGET:
                found[i] = (s[i], modulus)
                continue
            # theta and its derivative share the pass's logscale
            with np.errstate(all="ignore"):
                ds = complex(f[row] / d0[row])
            if ds == 0 or not cmath.isfinite(ds):
                continue
            if abs(ds) > 0.7:
                ds *= 0.7 / abs(ds)
            s[i] -= ds
            if abs(s[i]) <= 4.0:
                still.append(i)
        going = still
    return found


def line_roots(Z0, D, B: PeriodMatrix) -> list:
    """Roots of s -> theta(Z0 + sD) inside the [-1, 1]^2 square of s.

    Argument-principle winding counts over GRID x GRID cells isolate the
    candidates; Newton with the analytic derivative polishes them all in
    lockstep.  Returns (s, normalized |theta| at Z0 + s D) pairs from each
    root's last Newton pass, in cell order (ix outer, iy inner).
    """
    Z0, D = np.asarray(Z0, complex), np.asarray(D, complex)
    nodes = np.linspace(-1.0, 1.0, GRID + 1)
    ss = (nodes + 1j * nodes[:, None]).ravel()         # x + i y, row iy, column ix
    phases = _phases(Z0, D, B, ss)
    # node indices of the edges: horizontal [iy, ix] -> [iy, ix + 1], then
    # vertical [iy, ix] -> [iy + 1, ix]
    k = np.arange(ss.size).reshape(GRID + 1, GRID + 1)
    a = np.concatenate([k[:, :-1].ravel(), k[:-1].ravel()])
    b = np.concatenate([k[:, 1:].ravel(), k[1:].ravel()])
    edge, s0, s1, p0, p1 = np.arange(a.size), ss[a], ss[b], phases[a], phases[b]
    turn = np.zeros(a.size)
    for depth in range(8):
        d = p1 - p0            # wrapped into (-pi, pi], as a modulo would not
        d[d > math.pi] -= 2.0 * math.pi
        d[d <= -math.pi] += 2.0 * math.pi
        split = (np.abs(d) > 1.2) & (depth < 7)
        np.add.at(turn, edge[~split], d[~split])
        if not split.any():
            break
        # bisect every piece that still turns too far: one pass per round
        edge, s0, s1, p0, p1 = (x[split] for x in (edge, s0, s1, p0, p1))
        mid = 0.5 * (s0 + s1)
        pm = _phases(Z0, D, B, mid)
        edge, s0, s1, p0, p1 = (np.concatenate(x) for x in (
            (edge, edge), (s0, mid), (mid, s1), (p0, pm), (pm, p1)))
    horiz = turn[:a.size // 2].reshape(GRID + 1, GRID)
    vert = turn[a.size // 2:].reshape(GRID, GRID + 1)
    winding = np.rint((horiz[:-1] + vert[:, 1:] - horiz[1:] - vert[:, :-1])
                      / (2.0 * math.pi))
    cells = np.argwhere(winding.T != 0)                # ix outer, iy inner
    centers = [complex(0.5 * (nodes[ix] + nodes[ix + 1]),
                       0.5 * (nodes[iy] + nodes[iy + 1])) for ix, iy in cells]
    return [root for root in _newton(Z0, D, B, centers) if root is not None]


def sample_theta_divisor(B: PeriodMatrix, seed: int, count: int) -> list:
    """Seeded, deduplicated theta-divisor samples (normalized |theta| <= 1e-10)."""
    if not 0 <= count <= 10 ** 4:
        raise ValidationError(f"count {count} outside 0..10^4")
    if count == 0:
        return []
    rng = Xoshiro256(seed)
    samples = []
    for _ in range(100 * count):
        Z0 = np.array(rng.complex_vector(B.g, scale=0.45))
        D = np.array(rng.complex_vector(B.g))
        D = D / np.linalg.norm(D)
        for s, modulus in line_roots(Z0, D, B):
            Z = Z0 + s * D
            # distinct as points of C^g; at g=1 all divisor points coincide
            # mod lattice, so reduced distance would never admit a second one
            if any(float(np.linalg.norm(Z - s2.Z)) <= DEDUPE_DISTANCE
                   for s2 in samples):
                continue
            samples.append(DivisorSample(Z, modulus))
            if len(samples) >= count:
                return samples
    raise RootSearchFailed(
        f"found {len(samples)} of {count} requested divisor samples")


def verify_samples(Z, B: PeriodMatrix) -> float:
    """The largest normalized |theta| over the divisor points, the rows of
    Z, shape (P, g), re-evaluated in one pass at twice the truncation
    radius (which does not depend on the point)."""
    Z = _as_points(Z, B.g)
    jets = theta_jets(Z, B, radius=2 * truncation_radius(B, Z, DEFAULT_TOL))
    return float(np.exp(normalized_log_abs_many(jets, B, Z).max()))


# ----------------------------------------------------------------------
# identity residuals on the divisor
# ----------------------------------------------------------------------

def residual_cm7(Z, U, V, B: PeriodMatrix) -> list:
    """Tangency identity residuals at the divisor points, the rows of Z,
    shape (P, g), from two lattice passes.

    Compares d_V[theta(Z+U) theta(Z-U)] * d_V theta(Z) against
    theta(Z+U) theta(Z-U) * d^2_VV theta(Z), as a relative gap.
    """
    Z = _as_points(Z, B.g)
    U, V = as_vector(U), as_vector(V)
    # Z +- U in one pass; Z alone, since its 2-jet needs a larger radius.
    # Both sides are products of the same three rows, so they share one
    # logscale and are compared as mantissas.
    pm = theta_jets(np.concatenate([Z + U, Z - U]), B, dirs=(V,)).sums
    jz = theta_jets(Z, B, dirs=(V, V)).sums
    out = []
    for p in range(len(Z)):
        f, d = pm["f"][p::len(Z)], pm["d0"][p::len(Z)]
        lhs = (d[0] * f[1] + f[0] * d[1]) * jz["d0"][p]
        rhs = f[0] * f[1] * jz["d01"][p]
        out.append(float(abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)))
    return out


def residual_cm7d(Z, U, V, B: PeriodMatrix) -> list:
    """Three-term discrete identity residuals at the divisor points, the
    rows of Z, shape (P, g), from one lattice pass.

    Relative size of theta(Z+U)theta(Z-V)theta(Z-U+V)
                   + theta(Z-U)theta(Z+V)theta(Z+U-V).
    """
    Z = _as_points(Z, B.g)
    U, V = as_vector(U), as_vector(V)
    J = theta_jets(np.stack([Z + U, Z - V, Z - U + V, Z - U, Z + V, Z + U - V],
                            axis=1).reshape(-1, Z.shape[1]), B)
    out = []
    # per point, the two triple products compared at the larger of their
    # logscales
    for f, ls in zip(J.sums["f"].reshape(-1, 2, 3), J.logscale.reshape(-1, 2, 3)):
        scale = ls.sum(axis=1)
        a, b = rescale(f.prod(axis=1), scale, scale.max())
        out.append(float(abs(a + b) / (abs(a) + abs(b) + 1e-300)))
    return out


def singular_locus_probe(Z, U, V, B: PeriodMatrix, K: int) -> list:
    """max over |k| <= K of the normalized |theta(z + k(U-V))| at each
    divisor point z, a row of Z, shape (P, g), from one lattice pass.

    A value well above zero certifies the sample is not on the maximal
    (U-V)-shift-invariant subset of the divisor, to depth K.  K = 0
    degenerates to the divisor membership itself.  K is at most
    MAX_PROBE_DEPTH, or ValidationError is raised.
    """
    if not 0 <= K <= MAX_PROBE_DEPTH:
        raise ValidationError(f"K={K} outside 0..{MAX_PROBE_DEPTH}")
    Z = _as_points(Z, B.g)
    U, V = as_vector(U), as_vector(V)
    W = (Z[:, None, :] + np.arange(-K, K + 1)[None, :, None] * (U - V)).reshape(-1, B.g)
    la = normalized_log_abs_many(theta_jets(W, B), B, W).reshape(len(Z), 2 * K + 1)
    return [float(np.exp(row).max()) for row in la]
