"""Property tests of the theta engine over random Siegel matrices, thin ones
included (smallest eigenvalue of Im B down to 0.01).

Gaps are measured in units of the Gaussian envelope exp(pi y Y^-1 y),
y = Im z, Y = Im B, which bounds every term of the series from above and
the largest one within a factor exp(pi/4 sum |Y_ij|).  Points are drawn in
the fundamental cell, Im z = Y t with t in [-1/2, 1/2]^g.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from theta_secant import theta as theta_module
from theta_secant.scaled import ScaledComplex
from theta_secant.theta import (
    PeriodMatrix,
    ThetaRequest,
    level_two_vector,
    level_two_vectors,
    theta,
    theta_jet,
    theta_jets,
)
from theta_values import gauss_exponent

GAP = 1e-12
unit = st.floats(-0.5, 0.5)


@st.composite
def siegel_points(draw, count=1):
    """(B, [z, ...]): Im B with smallest eigenvalue 10^[-2, 0.3] and a random
    orientation, Re B in [-1/2, 1/2]; points in the fundamental cell."""
    g = draw(st.sampled_from((1, 2)))
    lam = 10.0 ** draw(st.floats(-2.0, 0.3))
    if g == 1:
        Y = np.array([[lam]])
        X = np.array([[draw(unit)]])
    else:
        lam2 = draw(st.floats(max(lam, 0.3), 2.5))
        a = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        Y = rot @ np.diag([lam, lam2]) @ rot.T
        off = draw(unit)
        X = np.array([[draw(unit), off], [off, draw(unit)]])
    zs = [np.array([draw(unit) for _ in range(g)])
          + 1j * Y @ np.array([draw(unit) for _ in range(g)]) for _ in range(count)]
    return PeriodMatrix(X + 1j * Y), zs


def values(Z, B: PeriodMatrix, dirs=(), key="f") -> list:
    """theta (or one jet key) at the rows of Z from one pass, as a
    (mantissa, logscale) pair per row."""
    jets = theta_jets(Z, B, dirs=dirs)
    return list(zip(jets.sums[key], jets.logscale))


def combine(*terms) -> tuple:
    """sum of c * value over the (c, (mantissa, logscale)) terms, at their
    largest scale, as a (mantissa, logscale) pair."""
    ref = max(ls for _, (_, ls) in terms)
    return sum(c * m * math.exp(ls - ref) for c, (m, ls) in terms), ref


def envelope_gap(a: tuple, b: tuple, log_envelope: float) -> float:
    """|a - b| in units of exp(log_envelope)."""
    d, ref = combine((1.0, a), (-1.0, b))
    return abs(d) * math.exp(ref - log_envelope)


@settings(max_examples=60, deadline=None)
@given(siegel_points())
def test_evenness(case):
    B, (z,) = case
    plus, minus = values(np.array([z, -z]), B)
    assert envelope_gap(plus, minus, gauss_exponent(B, z)) <= GAP


@settings(max_examples=60, deadline=None)
@given(siegel_points())
def test_quasi_periodicity(case):
    """theta(z + B e_j) = exp(-pi i B_jj - 2 pi i z_j) theta(z)."""
    B, (z,) = case
    (f, ls), *shifted = values(np.array([z] + [z + B.entries[:, j] for j in range(B.g)]), B)
    for j in range(B.g):
        expo = -1j * math.pi * B.entries[j, j] - 2j * math.pi * z[j]
        gap = envelope_gap(shifted[j], (f * np.exp(1j * expo.imag), ls + expo.real),
                           gauss_exponent(B, z + B.entries[:, j]))
        assert gap <= GAP


@settings(max_examples=60, deadline=None)
@given(siegel_points(count=2))
def test_addition_formula(case):
    """theta(z+w) theta(z-w) = sum_eps theta[eps,0](2z|2B) theta[eps,0](2w|2B):
    plain theta on the left, the binned level-two sum on the right."""
    B, (z, w) = case
    (fp, lp), (fm, lm) = values(np.array([z + w, z - w]), B)
    vz, vw = level_two_vectors(np.array([z, w]), B)["f"]
    rhs = complex(vz.coords @ vw.coords), vz.logscale + vw.logscale
    log_envelope = gauss_exponent(B, z + w) + gauss_exponent(B, z - w)
    assert envelope_gap((fp * fm, lp + lm), rhs, log_envelope) <= GAP


def _d_dB(z, B: PeriodMatrix, j: int, k: int, h: float) -> tuple:
    """Central difference of theta(z | B) in B_jk, moving B_kj with it."""
    E = np.zeros((B.g, B.g))
    E[j, k] = E[k, j] = 1.0
    (plus,) = values(z[None], PeriodMatrix(B.entries + h * E))
    (minus,) = values(z[None], PeriodMatrix(B.entries - h * E))
    return combine((0.5 / h, plus), (-0.5 / h, minus))


@settings(max_examples=60, deadline=None)
@given(siegel_points())
def test_heat_equation(case):
    """d theta / d B_jk = (2 pi i)^-1 (1 + delta_jk)^-1 d^2 theta / dz_j dz_k:
    a Richardson-extrapolated difference in B (h = 1e-4) against the 2-jet
    along e_j, e_k.  The difference's error grows as Im B thins: over 3000
    draws it stayed below 8e-11 envelope units for lam_min >= 0.05 and
    below 7e-7 under it."""
    B, (z,) = case
    bound = 1e-9 if B.lam_min >= 0.05 else 1e-5
    for j in range(B.g):
        for k in range(j, B.g):
            e = np.eye(B.g)
            (jet,) = values(z[None], B, dirs=(e[j], e[k]), key="d01")
            rhs = combine((1.0 / (2j * math.pi * (1 + (j == k))), jet))
            lhs = combine((4.0 / 3.0, _d_dB(z, B, j, k, 5e-5)),
                          (-1.0 / 3.0, _d_dB(z, B, j, k, 1e-4)))
            assert envelope_gap(lhs, rhs, gauss_exponent(B, z)) <= bound


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit (as float64 patterns)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_scaled(a: ScaledComplex, b: ScaledComplex) -> bool:
    return _same(np.array([a.mantissa, a.logscale]), np.array([b.mantissa, b.logscale]))


@settings(max_examples=60, deadline=None)
@given(siegel_points(count=5), st.integers(0, 2),
       st.lists(st.complex_numbers(max_magnitude=2.0), min_size=4, max_size=4),
       st.sampled_from((theta_module.PASS_TERMS, 1, 64)))
# a subnormal direction makes the level-two derivative vectors subnormal
@example(case=(PeriodMatrix([[1j]]), [np.zeros(1, complex)] * 5), order=1,
         dir_entries=[2.225073858507e-311 + 0j, 0j, 0j, 0j],
         pass_terms=theta_module.PASS_TERMS)
@example(case=(PeriodMatrix([[0.3 + 1j, 0.2], [0.2, -0.1 + 0.8j]]),
               [np.array([0.1 + 0.2j, -0.3j])] * 5), order=2,
         dir_entries=[1.0 + 0j, 0.5j, -1.0 + 0j, 2.0 + 0j], pass_terms=1)
@example(case=(PeriodMatrix([[0.3 + 1j, 0.2], [0.2, -0.1 + 0.8j]]),
               [np.array([0.1 + 0.2j, -0.3j])] * 5), order=1,
         dir_entries=[1.0 + 0j, 0.5j, -1.0 + 0j, 2.0 + 0j], pass_terms=64)
def test_batch_rows_equal_single_point_calls(case, order, dir_entries, pass_terms):
    """Row p of a P-point pass is bitwise the one-point pass at that row:
    value, 1-jet and 2-jet, and the level-two vectors with and without a
    derivative direction, also when the pass runs in blocks of one point
    or of a few (theta.PASS_TERMS of 1 or 64 terms).  The one-point views
    return the rows: theta and theta_jet as ScaledComplex.make(row,
    logscale), level_two_vector as the row's vector."""
    B, zs = case
    g = B.g
    Z = np.array(zs) + np.arange(len(zs))[:, None] * (0.7 + 0.4j)   # far cells too
    dirs = tuple(np.array(dir_entries[2 * k:2 * k + g]) for k in range(order))
    with mock.patch.object(theta_module, "PASS_TERMS", pass_terms):
        jets = theta_jets(Z, B, dirs=dirs)
        vecs = level_two_vectors(Z, B, deriv_dir=dirs[0] if dirs else None)
    for p in range(len(Z)):
        one = theta_jets(Z[p:p + 1], B, dirs=dirs)
        assert _same(one.logscale, jets.logscale[p:p + 1])
        for key, v in jets.sums.items():
            assert _same(one.sums[key], v[p:p + 1]), key
        single = level_two_vectors(Z[p:p + 1], B, deriv_dir=dirs[0] if dirs else None)
        for key, vs in vecs.items():
            assert _same(single[key][0].coords, vs[p].coords), key
            assert single[key][0].logscale == vs[p].logscale
        scale = float(jets.logscale[p])
        if order == 0:
            assert _same_scaled(theta(ThetaRequest(Z[p], B)),
                                ScaledComplex.make(jets.sums["f"][p], scale))
        view = theta_jet(Z[p], B, dirs)
        assert view.keys() == jets.sums.keys()
        for key, v in jets.sums.items():
            assert _same_scaled(view[key], ScaledComplex.make(v[p], scale)), key
        vec = level_two_vector(Z[p], B, dirs[0] if dirs else None)
        row = vecs["d0" if dirs else "f"][p]
        assert _same(vec.coords, row.coords) and vec.logscale == row.logscale
