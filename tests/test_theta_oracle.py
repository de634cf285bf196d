"""Theta values, jets and level-two vectors against an independent oracle.

The oracle works at 30 significant digits with mpmath: ``mpmath.jtheta`` for
genus 1 and, for any genus, a brute-force sum over the ellipsoid
pi (n - c, Y (n - c)) <= R2 around the peak c = -Y^-1 Im z of the Gaussian
envelope.  Every term outside it is below exp(-R2) = 4e-44 of the envelope's
peak, and their number and derivative factors grow only polynomially, so the
oracle's own truncation is far below the 1e-13 the engine is held to.  The
gap is measured in units of the largest term of the series (with its
derivative factors), which is the scale the engine's tolerance refers to.
"""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from theta_secant.rng import Xoshiro256, random_siegel, random_z
from theta_secant.theta import PeriodMatrix, level_two_vectors, theta_jets
from theta_values import char_eps

DIGITS = 30
R2 = 100.0
GAP = 1e-13
KEYS = ("f", "d0", "d1", "d01")


def _points(z, Y, eps):
    """n in Z^g + eps with pi (n - c, Y (n - c)) <= R2, c = -Y^-1 Im z."""
    g = len(z)
    c = -np.linalg.solve(Y, np.imag(z))
    half = np.sqrt(R2 * np.diag(np.linalg.inv(Y)) / math.pi)
    axes = [range(math.floor(c[j] - half[j] - eps[j]), math.ceil(c[j] + half[j] - eps[j]) + 1)
            for j in range(g)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g) + eps
    u = grid - c
    return grid[math.pi * np.einsum("ij,jk,ik->i", u, Y, u) <= R2]


def brute_jet(z, B, dirs, eps=None):
    """30-digit sums of the value and the derivative series, and the
    largest term of each: ({key: mpc}, {key: float})."""
    z = np.atleast_1d(np.asarray(z, complex))
    B = np.atleast_2d(np.asarray(B, complex))
    g = len(z)
    eps = np.zeros(g) if eps is None else np.asarray(eps, float)
    pts = _points(z, B.imag, eps)
    sums = {k: mpc(0) for k in KEYS}
    peaks = {k: 0.0 for k in KEYS}
    with mp.workdps(DIGITS + 10):
        pi_i = mp.pi * mpc(0, 1)
        zm = [mpc(v) for v in z]
        Bm = [[mpc(v) for v in row] for row in B]
        dm = [[mpc(v) for v in d] for d in dirs]
        for n in pts:
            n = [mpf(v) for v in n]
            quad = sum(Bm[i][j] * n[i] * n[j] for i in range(g) for j in range(g))
            term = mpmath.exp(pi_i * quad + 2 * pi_i * sum(a * b for a, b in zip(zm, n)))
            fac = [2 * pi_i * sum(a * b for a, b in zip(d, n)) for d in dm]
            parts = {"f": term}
            if dirs:
                parts["d0"] = fac[0] * term
            if len(dirs) == 2:
                parts["d1"] = fac[1] * term
                parts["d01"] = fac[0] * fac[1] * term
            for k, v in parts.items():
                sums[k] += v
                peaks[k] = max(peaks[k], float(abs(v)))
    return sums, peaks


def jtheta_jet(z, tau, dirs):
    """Genus-1 sums from mpmath.jtheta: theta(z|tau) = theta_3(pi z, q)."""
    with mp.workdps(DIGITS + 10):
        q = mpmath.exp(mp.pi * mpc(0, 1) * mpc(tau))
        x = mp.pi * mpc(z)
        th = [mpmath.jtheta(3, x, q, k) for k in range(3)]
        d = [mpc(v) for v in dirs]
        out = {"f": th[0]}
        if dirs:
            out["d0"] = d[0] * mp.pi * th[1]
        if len(dirs) == 2:
            out["d1"] = d[1] * mp.pi * th[1]
            out["d01"] = d[0] * d[1] * mp.pi ** 2 * th[2]
    return out


def gap(mantissa, logscale, ref, peak):
    """|engine - oracle| in units of the largest series term, for the engine
    value mantissa * exp(logscale)."""
    with mp.workdps(DIGITS + 10):
        mine = mpc(mantissa) * mpmath.exp(mpf(logscale))
        return float(abs(mine - ref)) / peak


def _cases():
    rng = Xoshiro256(2024)
    cases = []
    for k in range(6):
        g = 1 + k % 2
        B = random_siegel(rng, g)
        cases.append((f"random{k}", B.entries, random_z(rng, g)))
    # thin matrices: smallest eigenvalue of Im B 0.01, and the two thin
    # matrices of the siegel-sweep benchmark.  Points are taken in the
    # fundamental cell, Im z = Y t with t in [-1/2, 1/2]^g: far out, the
    # value is too sensitive to the last bit of B for a 1e-13 gate (at
    # z = (0.2+0.05i, -0.1+0.3i), 15 cells out for thin-g2, a one-ulp change
    # of Re B_12 moves theta[0,0](2z|2B) by 1.2e-13 of its largest term)
    a = 0.4
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    Y = rot @ np.diag([0.01, 1.3]) @ rot.T
    cases.append(("thin-g1", np.array([[0.23 + 0.01j]]), np.array([0.31 - 0.004j])))
    cases.append(("thin-g2", np.array([[0.1, -0.3], [-0.3, 0.2]]) + 1j * Y,
                  np.array([0.2, -0.1]) + 1j * Y @ np.array([0.3, -0.4])))
    cases.append(("sweep-thin-g1", np.array([[0.01j]]), np.array([0.1 + 0.002j])))
    cases.append(("sweep-thin-g2", np.array([[0.05 + 0.01j, 0], [0, 0.1 + 1j]]),
                  np.array([0.1 + 0.002j, -0.2 + 0.1j])))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,Bm,z", CASES, ids=[c[0] for c in CASES])
def test_theta_jets_against_oracle(name, Bm, z):
    B = PeriodMatrix(Bm)
    g = B.g
    V = np.array([0.6 - 0.3j, 0.5 + 0.1j][:g])
    W = np.array([-0.2 + 0.7j, 0.4][:g])
    ref, peaks = brute_jet(z, Bm, (V, W))
    if g == 1:
        # jtheta and the ellipsoid sum agree far below the engine's gap
        jt = jtheta_jet(z[0], Bm[0, 0], (V[0], W[0]))
        for k in KEYS:
            with mp.workdps(DIGITS + 10):
                assert float(abs(jt[k] - ref[k])) <= 1e-25 * peaks[k]
        ref = jt
    for dirs in ((), (V,), (V, W)):
        jets = theta_jets(z[None], B, dirs=dirs)
        for k, v in jets.sums.items():
            assert gap(v[0], jets.logscale[0], ref[k], peaks[k]) <= GAP, (len(dirs), k)


@pytest.mark.parametrize("name,Bm,z", CASES, ids=[c[0] for c in CASES])
def test_level_two_against_oracle(name, Bm, z):
    """theta[eps,0](2Z|2B) and its Z-derivative, each from its own
    characteristic sum, against the engine's one binned sum."""
    B = PeriodMatrix(Bm)
    g = B.g
    V = np.array([0.3 + 0.8j, -0.5 + 0.2j][:g])
    (val,) = level_two_vectors(z[None], B)["f"]
    (der,) = level_two_vectors(z[None], B, deriv_dir=V)["d0"]
    refs = [brute_jet(2 * z, 2 * Bm, (2 * V,), eps=char_eps(k, g)) for k in range(2 ** g)]
    peak_f = max(p["f"] for _, p in refs)
    peak_d = max(p["d0"] for _, p in refs)
    for k, (ref, _) in enumerate(refs):
        assert gap(val.coords[k], val.logscale, ref["f"], peak_f) <= GAP
        assert gap(der.coords[k], der.logscale, ref["d0"], peak_d) <= GAP


def _batch(z):
    """Three points of the fundamental cell around z, for one batched pass."""
    return np.array([z, 0.5 - z, 0.5 * z])


@pytest.mark.parametrize("name,Bm,z", CASES, ids=[c[0] for c in CASES])
def test_batched_jets_against_oracle(name, Bm, z):
    """theta_jets: every point of one three-point pass against the oracle."""
    B = PeriodMatrix(Bm)
    g = B.g
    V = np.array([0.6 - 0.3j, 0.5 + 0.1j][:g])
    W = np.array([-0.2 + 0.7j, 0.4][:g])
    Z = _batch(z)
    jets = theta_jets(Z, B, dirs=(V, W))
    for p, zp in enumerate(Z):
        ref, peaks = brute_jet(zp, Bm, (V, W))
        for k in KEYS:
            assert gap(jets.sums[k][p], jets.logscale[p], ref[k], peaks[k]) <= GAP, (p, k)


@pytest.mark.parametrize("name,Bm,z", CASES, ids=[c[0] for c in CASES])
def test_batched_level_two_against_oracle(name, Bm, z):
    """level_two_vectors: values and V-derivatives of one three-point
    binned pass against the per-characteristic oracle sums."""
    B = PeriodMatrix(Bm)
    g = B.g
    V = np.array([0.3 + 0.8j, -0.5 + 0.2j][:g])
    Z = _batch(z)
    vecs = level_two_vectors(Z, B, deriv_dir=V)
    for p, zp in enumerate(Z):
        refs = [brute_jet(2 * zp, 2 * Bm, (2 * V,), eps=char_eps(k, g)) for k in range(2 ** g)]
        for key, vec in (("f", vecs["f"][p]), ("d0", vecs["d0"][p])):
            peak = max(pk[key] for _, pk in refs)
            for k, (ref, _) in enumerate(refs):
                assert gap(vec.coords[k], vec.logscale, ref[key], peak) <= GAP, (p, key, k)
