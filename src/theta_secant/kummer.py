"""Kummer map, projective collinearity, and secancy-constant fits.

The Kummer map sends Z to the 2^g-vector of level-two theta values; its
image lives in projective space, so all comparisons here are scale-free.

Both secancy fits are linear least-squares problems in two unknowns:

  discrete      Th[eps]((A-U-V)/2) + e^p Th[eps]((A+U-V)/2)
                    = e^E Th[eps]((A+V-U)/2)           for all eps,
  semidiscrete  d_V Th[eps]((A-U)/2) - e^p Th[eps]((A+U)/2)
                    + E Th[eps]((A-U)/2) = 0           for all eps.

A is only determined up to theta-characteristic conventions, so the fit
is repeated over all 4^g half-period shifts of A and the best residual
wins (deterministic tie-break: lowest shift index).  The level-two vectors
of all shifts come from one binned lattice pass, and the fit returns the
winning shift's A and vectors with its constants.  Note the literal
covariance of the semidiscrete fit: replacing V by lam*V rescales the
fitted (e^p, E) to (lam e^p, lam E) and leaves the residual unchanged.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import CoincidentPoints, DimensionMismatch, RankDeficient, ZeroVector
from .theta import (
    _EPS,
    Level2Vector,
    PeriodMatrix,
    _norm,
    _sum_last,
    as_vector,
    half_period,
    lattice_distance,
    level_two_vector,
    level_two_vectors,
    rescale,
)

JACOBI_SWEEPS = 30            # cap of collinearity_defect's Jacobi sweeps
RANK_TOL = 1e-12              # least s_min / s_max of a system _least_squares2 solves


def _unit(p: Level2Vector) -> np.ndarray:
    n = _norm(p.coords)
    if n == 0:
        raise ZeroVector("projective point has no nonzero coordinate")
    return p.coords / n


class SecancyData(NamedTuple):
    """Fitted secancy constants with their least-squares residual, the
    winning shift of A (As) and the level-two vectors solved at it: the
    three Kummer points, or the two values and the V-derivative."""

    p: complex
    E: complex
    exp_p: complex
    exp_E: complex | None
    residual: float
    calibration_shift: int
    As: np.ndarray
    vectors: tuple


def kummer_map(Z, B: PeriodMatrix) -> Level2Vector:
    """Level-two theta vector of Z, a point of CP^(2^g - 1)."""
    vec = level_two_vector(Z, B)
    if np.logical_and.reduce(np.abs(vec.coords) < 1e-250):
        raise ZeroVector("all Kummer coordinates vanished at common scale")
    return vec


def collinearity_defect(p1: Level2Vector, p2: Level2Vector,
                        p3: Level2Vector) -> float:
    """sigma_3 / sigma_1 of the stacked unit coordinate rows; 0 iff collinear.

    One-sided Jacobi (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
    1992): plane rotations of pairs of rows x, y of n coordinates, sweep
    after sweep (at most JACOBI_SWEEPS), until |x^H y| <= n eps |x| |y| for
    every pair; the singular values are then the row norms, the least one
    to full relative accuracy, since the rows start at unit norm.
    """
    if not (len(p1.coords) == len(p2.coords) == len(p3.coords)):
        raise DimensionMismatch("points live in different projective spaces")
    rows = [_unit(p1), _unit(p2), _unit(p3)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            x, y = rows[i], rows[j]
            a, b = _sum_last(x.conj() * x).real, _sum_last(y.conj() * y).real
            c = complex(_sum_last(x.conj() * y))
            if not abs(c) > len(x) * _EPS * math.sqrt(a * b):
                continue
            rotated = True
            y = y * (c.conjugate() / abs(c))        # x^H y becomes real, |c|
            # t = tan of the angle of the rotation that zeroes it
            zeta = (b - a) / (2.0 * abs(c))
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1.0 / math.hypot(1.0, t)
            rows[i], rows[j] = cs * x - cs * t * y, cs * t * x + cs * y
        if not rotated:
            break
    norms = sorted(map(_norm, rows))
    return float(norms[0] / norms[2])


def _common_scale(vectors):
    ref = max(v.logscale for v in vectors)
    return [rescale(v.coords, v.logscale, ref) for v in vectors]


def _least_squares2(M: np.ndarray, r: np.ndarray) -> tuple:
    """(w, solved): the least-squares solutions w, shape (..., 2), of the
    systems M w = r, M of shape (..., n, 2) and r (..., n); solved is false
    where M's singular values have s_min <= RANK_TOL s_max, w is then not a
    solution.

    M = QR by modified Gram-Schmidt, with Q^H r from the same steps on r
    (backward stable, Bjorck 1967) and inner products summed in index order;
    the singular values are R's, in closed form: with R = [[f, g], [0, h]]
    up to phases, s_max = (|(f + h, g)| + |(f - h, g)|) / 2, s_min = f h / s_max.
    """
    a, b = M[..., 0], M[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = _norm(a)
        q0 = a / f[..., None]
        g = _sum_last(q0.conj() * b)
        b = b - g[..., None] * q0
        h = _norm(b)
        s_max = 0.5 * (np.hypot(f + h, abs(g)) + np.hypot(f - h, abs(g)))
        q1 = b / h[..., None]
        z0 = _sum_last(q0.conj() * r)
        w1 = _sum_last(q1.conj() * (r - z0[..., None] * q0)) / h
        return np.stack([(z0 - g * w1) / f, w1], axis=-1), f * h > RANK_TOL * s_max * s_max


def _best_shift(systems, design) -> tuple:
    """(residual, shift index, w0, w1) of the best least-squares fit over the
    shifts, lowest index on ties; design maps a shift's vectors, on their
    common scale, to its (matrix, right-hand side), and each system is
    divided by its largest modulus.  The residual is |M w - r| / (|r| + |M w|)."""
    M, r = map(np.array, zip(*(design(*_common_scale(system)) for system in systems)))
    scale = np.maximum(np.maximum(abs(M).max(axis=(1, 2)), abs(r).max(axis=1)), 1e-300)
    M, r = M / scale[:, None, None], r / scale[:, None]
    w, solved = _least_squares2(M, r)
    if not solved.any():
        raise RankDeficient("design matrix rank deficient for every shift")
    fit = _sum_last(M * w[:, None, :])
    rel = _norm(fit - r) / (_norm(r) + _norm(fit) + 1e-300)
    k = int(np.argmin(np.where(solved, rel, np.inf)))
    return float(rel[k]), k, *w[k]


def _check_distinct(B, pairs):
    for name, vec in pairs:
        if lattice_distance(vec, B) < 1e-8:
            raise CoincidentPoints(f"{name} vanishes modulo the lattice")


def fit_secancy_discrete(U, V, A, B: PeriodMatrix) -> SecancyData:
    """Best-fitting (e^p, e^E) for the three-term level-two system."""
    U, V, A = map(as_vector, (U, V, A))
    _check_distinct(B, [("U-V", U - V), ("U-A", U - A), ("V-A", V - A)])
    shifts = [A + half_period(B, k) for k in range(4 ** B.g)]
    vecs = level_two_vectors([p for As in shifts for p in (
        (As - U - V) / 2.0, (As + U - V) / 2.0, (As + V - U) / 2.0)], B)["f"]
    systems = [tuple(vecs[3 * k:3 * k + 3]) for k in range(len(shifts))]
    rel, k, ep, eE = _best_shift(
        systems, lambda c1, c2, c3: (np.stack([c2, -c3], axis=1), -c1))
    return SecancyData(cmath.log(ep), cmath.log(eE), ep, eE, rel, k, shifts[k], systems[k])


def fit_secancy_semidiscrete(U, V, A, B: PeriodMatrix) -> SecancyData:
    """Best-fitting (e^p, E) for the tangency system with analytic d_V."""
    U, V, A = map(as_vector, (U, V, A))
    _check_distinct(B, [("U-A", U - A)])
    if _norm(V) == 0:
        raise CoincidentPoints("V must be nonzero")
    shifts = [A + half_period(B, k) for k in range(4 ** B.g)]
    vecs = level_two_vectors([p for As in shifts for p in ((As - U) / 2.0, (As + U) / 2.0)],
                             B, deriv_dir=V)
    systems = [(vecs["f"][2 * k], vecs["f"][2 * k + 1], vecs["d0"][2 * k])
               for k in range(len(shifts))]
    rel, k, ep, E = _best_shift(
        systems, lambda cm_, cp, cd: (np.stack([cp, -cm_], axis=1), cd))
    return SecancyData(cmath.log(ep), E, ep, None, rel, k, shifts[k], systems[k])
