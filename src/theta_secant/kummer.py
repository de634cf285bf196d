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
from typing import NamedTuple

import numpy as np

from .errors import CoincidentPoints, DimensionMismatch, RankDeficient, ZeroVector
from .theta import (
    Level2Vector,
    PeriodMatrix,
    half_period,
    lattice_distance,
    level_two_vector,
    level_two_vectors,
)

RANK_TOL = 1e-12


def _unit(p: Level2Vector) -> np.ndarray:
    n = np.linalg.norm(p.coords)
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
    """sigma_3 / sigma_1 of the stacked unit coordinate rows; 0 iff collinear."""
    if not (p1.g == p2.g == p3.g):
        raise DimensionMismatch("points live in different projective spaces")
    M = np.stack([_unit(p1), _unit(p2), _unit(p3)])
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[2] / sv[0])


def _common_scale(vectors):
    ref = max(v.logscale for v in vectors)
    return [v.coords * np.exp(v.logscale - ref) for v in vectors]


def _solve(M: np.ndarray, r: np.ndarray):
    scale = max(float(np.max(np.abs(M))), float(np.max(np.abs(r))), 1e-300)
    Ms, rs = M / scale, r / scale
    w, _, _, sv = np.linalg.lstsq(Ms, rs, rcond=None)
    if sv[-1] / sv[0] < RANK_TOL:
        return None
    rel = np.linalg.norm(Ms @ w - rs) / (np.linalg.norm(rs)
                                         + np.linalg.norm(Ms @ w) + 1e-300)
    return w, float(rel)


def _best_shift(systems, design) -> tuple:
    """(residual, shift index, w0, w1) of the best least-squares fit over the
    shifts, lowest index on ties; design maps a shift's vectors, on their
    common scale, to its (matrix, right-hand side)."""
    best = None
    for k, system in enumerate(systems):
        sol = _solve(*design(*_common_scale(system)))
        if sol is not None and (best is None or sol[1] < best[0]):
            best = (sol[1], k, *sol[0])
    if best is None:
        raise RankDeficient("design matrix rank deficient for every shift")
    return best


def _check_distinct(B, pairs):
    for name, vec in pairs:
        if lattice_distance(vec, B) < 1e-8:
            raise CoincidentPoints(f"{name} vanishes modulo the lattice")


def fit_secancy_discrete(U, V, A, B: PeriodMatrix) -> SecancyData:
    """Best-fitting (e^p, e^E) for the three-term level-two system."""
    U, V, A = (np.atleast_1d(np.asarray(x, complex)) for x in (U, V, A))
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
    U, V, A = (np.atleast_1d(np.asarray(x, complex)) for x in (U, V, A))
    _check_distinct(B, [("U-A", U - A)])
    if np.linalg.norm(V) == 0:
        raise CoincidentPoints("V must be nonzero")
    shifts = [A + half_period(B, k) for k in range(4 ** B.g)]
    vecs = level_two_vectors([p for As in shifts for p in ((As - U) / 2.0, (As + U) / 2.0)],
                             B, deriv_dir=V)
    systems = [(vecs["f"][2 * k], vecs["f"][2 * k + 1], vecs["d0"][2 * k])
               for k in range(len(shifts))]
    rel, k, ep, E = _best_shift(
        systems, lambda cm_, cp, cd: (np.stack([cp, -cm_], axis=1), cd))
    return SecancyData(cmath.log(ep), E, ep, None, rel, k, shifts[k], systems[k])
