"""Bitwise guards of the theta core: frozen output hashes, the exact B/2,
batches that mix points with and without a lattice shift, and the genus-2
facts of Im B that PeriodMatrix computes without LAPACK.

Points "with b = 0" have Im z = Y t with t in the open cube (-1/2, 1/2)^g,
so that step 1 of the core finds no lattice shift; points "with b != 0"
are those moved by B m for a nonzero integer vector m.
"""

import functools
import hashlib
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from theta_secant.curves import build_abel_data, default_corpus
from theta_secant.rng import Xoshiro256
from theta_secant.theta import (_EPS, PeriodMatrix, _lattice_jets, _sum_last,
                                level_two_vectors, theta_jets)

from frozen import assert_frozen


def seeded_matrix(rng: Xoshiro256, g: int, lam: float) -> np.ndarray:
    """Re B in [-1/2, 1/2]; Im B with smallest eigenvalue lam and a random
    orientation (the other one in [max(lam, 0.3), 2.5])."""
    if g == 1:
        Y = np.array([[lam]])
        X = np.array([[rng.uniform_in(-0.5, 0.5)]])
    else:
        lam2 = rng.uniform_in(max(lam, 0.3), 2.5)
        a = rng.uniform_in(0.0, math.pi)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        Y = _sum_last((rot * [lam, lam2])[:, None, :] * rot)
        off = rng.uniform_in(-0.5, 0.5)
        X = np.array([[rng.uniform_in(-0.5, 0.5), off], [off, rng.uniform_in(-0.5, 0.5)]])
    return X + 1j * Y


def seeded_points(rng: Xoshiro256, E: np.ndarray) -> np.ndarray:
    """Two points with b = 0, then two with b != 0 (rows)."""
    g = len(E)
    Z = [np.array([rng.uniform_in(-0.5, 0.5) for _ in range(g)])
         + 1j * _sum_last(E.imag * [rng.uniform_in(-0.45, 0.45) for _ in range(g)])
         for _ in range(4)]
    for k in (2, 3):
        m = np.array([rng.uniform_in(-3, 3) for _ in range(g)]).round()
        m[(k - 2) % g] = k - 1.0
        Z[k] = Z[k] + _sum_last(E * m)
    return np.array(Z)


def cases(count=40):
    """(B, Z, d0, d1) over lam_min from 0.01 to 2, g = 1 and 2 in turn."""
    rng = Xoshiro256(2106)
    for k in range(count):
        g = 1 + k % 2
        E = seeded_matrix(rng, g, 10.0 ** (-2.0 + math.log10(200.0) * k / (count - 1)))
        d0, d1 = (np.array(rng.complex_vector(g)) for _ in range(2))
        yield PeriodMatrix(E), seeded_points(rng, E), d0, d1


def test_outputs_are_pinned():
    """sha256 of the mantissa and logscale bytes of theta_jets (0, 1 and 2
    directions) and level_two_vectors (with and without a direction), at
    each point alone and over all four points in one pass, on 40 seeded
    matrices (frozen from the core before the b = 0 pass skipped its
    prefactor work)."""
    h = hashlib.sha256()
    for B, Z, d0, d1 in cases():
        for batch in [Z[p:p + 1] for p in range(len(Z))] + [Z]:
            for dirs in ((), (d0,), (d0, d1)):
                jets = theta_jets(batch, B, dirs=dirs)
                for key in sorted(jets.sums):
                    h.update(jets.sums[key].tobytes())
                h.update(jets.logscale.tobytes())
            for deriv in (None, d0):
                vecs = level_two_vectors(batch, B, deriv_dir=deriv)
                for key in sorted(vecs):
                    for v in vecs[key]:
                        h.update(v.coords.tobytes())
                        h.update(np.float64(v.logscale).tobytes())
    assert_frozen(h.hexdigest(), {
        "numpy 2.4 X86_V4": "3a84ef65a2b4b64b70d7f28b891ed4859102a79483703b663e3fd347ba4447f4",
        "numpy 2.4 X86_V3": "3a84ef65a2b4b64b70d7f28b891ed4859102a79483703b663e3fd347ba4447f4",
        "numpy 2.4 X86_V2": "b1f6ca65363ef1ddb117d5c52325311393c72dad7e197b27589cd51d128b6fe7",
    })


# genus-2 Im B far from 1, where a product in det or hypot of the unscaled
# entries overflows or underflows
EXTREMES = {"huge": np.diag([1e200, 1e200]), "tiny": np.diag([1e-200, 1e-200]),
            "tiny-coupled": 1e-170 * np.array([[2.0, 1.0], [1.0, 2.0]]),
            "huge-coupled": np.array([[1e160, 1e150], [1e150, 1e160]])}


def test_halved_is_the_fresh_half_matrix():
    """B.halved() scales B exactly: its entries, (Im B)^-1 and lam_min are
    bit for bit those of PeriodMatrix(B / 2), for g = 1 to 3 and for a
    genus-2 matrix of entries near 1e160."""
    rng = Xoshiro256(77)
    mats = [1j * EXTREMES["huge-coupled"]]
    for k in range(300):
        g = 1 + k % 3
        Q = np.array([[rng.normal() for _ in range(g)] for _ in range(g)])
        S = np.array([[rng.uniform_in(-0.5, 0.5) for _ in range(g)] for _ in range(g)])
        scale = 10.0 ** rng.uniform_in(-2.0, 1.0)
        mats.append(S + S.T + 1j * (scale * Q @ Q.T + 0.01 * np.eye(g)))
    for E in mats:
        B = PeriodMatrix(E)
        half, fresh = B.halved(), PeriodMatrix(B.entries / 2)
        assert half.entries.tobytes() == fresh.entries.tobytes()
        assert half.im_inv.tobytes() == fresh.im_inv.tobytes()
        assert half.lam_min == fresh.lam_min
        assert B.halved() is half


def _rows_alone(Z, B, dirs, binned):
    return [_lattice_jets(Z[p:p + 1], B, dirs, binned=binned) for p in range(len(Z))]


@pytest.mark.parametrize("binned", [False, True], ids=["plain", "binned"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_mixed_batch_rows_equal_rows_alone(binned, order):
    """A pass over points with b = 0 and b != 0 returns, row for row, the
    bits of each point's own pass (which skips the prefactor work when its
    b is 0), with signed zeros: real points, -0 imaginary parts, a purely
    imaginary B and real directions included."""
    for B, Z, d0, d1 in cases(12):
        E = B.entries
        extra = [Z[0].real + 0j, -(Z[1].real + 0j), 1j * Z[0].imag, -0.0 * Z[0]]
        mats = [(B, (d0, d1)), (PeriodMatrix(1j * E.imag), (d0.real + 0j, -d1.real + 0j))]
        for M, (e0, e1) in mats:
            batch = np.vstack([Z[[0, 2, 1, 3]], extra])
            dirs = (e0, e1)[:order]
            sums, scale = _lattice_jets(batch, M, dirs, binned=binned)
            for p, (s1, l1) in enumerate(_rows_alone(batch, M, dirs, binned)):
                assert s1.tobytes() == sums[:, p:p + 1].tobytes(), p
                assert l1.tobytes() == scale[p:p + 1].tobytes(), p


def spd_corpus(count: int = 100_000) -> list:
    """count symmetric positive definite [[a, b], [b, c]] as (a, b, c), built
    by arithmetic alone (no libm call), so the same on every machine.

    Five kinds in turn: rotated diag(lam1, lam2) with lam1 from 2^-10 (about
    1e-3) to 2; the same, rotated by t down to 2^-60 (off-diagonals down to
    about 1e-18); pivoting ones, |b| > a; ones whose off-diagonal is set to
    a tiny number, down to 2^-60; and ones whose off-diagonal is
    sqrt(a) sqrt(c) 2^-53 or one ulp above it, where LAPACK's eigvalsh
    starts to treat the matrix as diagonal.  Rotations are rational:
    (cos, sin) = ((1 - t^2), 2t) / (1 + t^2).
    """
    rng = random.Random(4242)
    out = []
    for k in range(count):
        lam1 = math.ldexp(rng.uniform(1.0, 2.0), -rng.randrange(11))
        lam2 = lam1 + math.ldexp(rng.uniform(1.0, 2.0), rng.randrange(-12, 2))
        t = (math.ldexp(rng.uniform(-1.0, 1.0), -rng.randrange(8, 61)) if k % 5 == 1
             else rng.uniform(-1.0, 1.0))
        co, si = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
        a, b = lam1 * co * co + lam2 * si * si, (lam1 - lam2) * co * si
        c = lam1 * si * si + lam2 * co * co
        if k % 5 == 2:
            a, b = lam1, rng.choice((-1.0, 1.0)) * lam1 * rng.uniform(1.01, 8.0)
            c = b * b / a + lam2
        elif k % 5 == 3:
            b = rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(1.0, 2.0),
                                                     -rng.randrange(20, 61))
        elif k % 5 == 4:
            b = math.sqrt(a) * math.sqrt(c) * 2.0 ** -53
            b = rng.choice((-1.0, 1.0)) * rng.choice((b, math.nextafter(b, math.inf)))
        out.append((a, b, c))
    return out


@functools.cache
def spd_facts() -> tuple:
    """spd_corpus() as (N, 2, 2) matrices Y, and the lam_min and im_inv of
    PeriodMatrix(i Y)."""
    Y = np.array([[[a, b], [b, c]] for a, b, c in spd_corpus()])
    mats = [PeriodMatrix(1j * y) for y in Y]
    return Y, np.array([B.lam_min for B in mats]), np.array([B.im_inv for B in mats])


def test_least_eigenvalue_is_eigvalsh():
    """Over 10^5 seeded positive definite 2 x 2 matrices, thin, near-diagonal
    and pivoting ones among them, the genus-2 least eigenvalue is positive
    and within 8 eps lam_max of np.linalg.eigvalsh's."""
    Y, lam, _ = spd_facts()
    assert min(lam) < 1e-3 and min(abs(Y[:, 1, 0])) < 1e-18
    assert np.count_nonzero(abs(Y[:, 1, 0]) > Y[:, 0, 0]) > 15_000
    ref = np.linalg.eigvalsh(Y)
    assert np.all(abs(lam - ref[:, 0]) <= 8 * _EPS * ref[:, 1])
    assert min(lam) > 0


def test_inverse_is_pinned():
    """The genus-2 inverses of the same matrices are within 8 eps cond,
    relative to the largest entry, of np.linalg.inv's, and hash to one
    frozen value on every machine (Python float arithmetic, scaled back
    exactly)."""
    Y, _, inv = spd_facts()
    ref, lam = np.linalg.inv(Y), np.linalg.eigvalsh(Y)
    err = np.max(abs(inv - ref), axis=(1, 2)) / np.max(abs(ref), axis=(1, 2))
    assert np.all(err <= 8 * _EPS * lam[:, 1] / lam[:, 0])
    assert hashlib.sha256(inv.tobytes()).hexdigest() == (
        "f9601bc7273f3db32015206b5f0deeb84134b2346382066643e97023a952820e")


@pytest.mark.parametrize("name", EXTREMES)
def test_facts_hold_at_extreme_scales(name):
    """For Im B = [[a, b], [b, a]] of EXTREMES, lam_min and im_inv are within
    4 ulps of the exact a - |b| and adjugate / det."""
    Y = EXTREMES[name]
    B = PeriodMatrix(1j * Y)
    a, b = map(Fraction, Y[0].tolist())
    det = a * a - b * b
    exact = [a - abs(b), a / det, -b / det, -b / det, a / det]
    for got, x in zip([B.lam_min, *B.im_inv.flat], exact):
        got = float(got)
        assert math.isfinite(got), got
        assert abs(Fraction(got) - x) <= 4 * Fraction(math.ulp(float(x))), (got, x)


def _seed_one_siegel_matrices() -> list:
    """The period matrices of the benchmark's siegel-sweep at seed 1 (8 rounds,
    176 operations)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [np.array(op["B"])[..., 0] + 1j * np.array(op["B"])[..., 1]
            for op in workloads.siegel_sweep(1, 8)["ops"]]


def test_genus_two_matrices_need_no_lapack(no_lapack):
    """With every LAPACK routine raising, the corpus curves' period matrices
    and the siegel-sweep matrices of seed 1 build."""
    corpus = default_corpus()
    curves = [build_abel_data(corpus[k]).B.entries for k in corpus]
    siegel = [E for E in _seed_one_siegel_matrices() if len(E) == 2]
    assert len(curves) == 2 and len(siegel) == 88
    for E in curves + siegel:
        B = PeriodMatrix(E)
        assert B.lam_min > 0 and B.im_inv.shape == (2, 2)
