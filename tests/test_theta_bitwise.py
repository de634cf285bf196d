"""Bitwise guards of the theta core: frozen output hashes, the exact B/2,
and batches that mix points with and without a lattice shift.

Points "with b = 0" have Im z = Y t with t in the open cube (-1/2, 1/2)^g,
so that step 1 of the core finds no lattice shift; points "with b != 0"
are those moved by B m for a nonzero integer vector m.
"""

import hashlib
import math

import numpy as np
import pytest

from theta_secant.rng import Xoshiro256
from theta_secant.theta import PeriodMatrix, _lattice_jets, level_two_vectors, theta_jets


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
        Y = rot @ np.diag([lam, lam2]) @ rot.T
        off = rng.uniform_in(-0.5, 0.5)
        X = np.array([[rng.uniform_in(-0.5, 0.5), off], [off, rng.uniform_in(-0.5, 0.5)]])
    return X + 1j * Y


def seeded_points(rng: Xoshiro256, E: np.ndarray) -> np.ndarray:
    """Two points with b = 0, then two with b != 0 (rows)."""
    g = len(E)
    Z = [np.array([rng.uniform_in(-0.5, 0.5) for _ in range(g)])
         + 1j * E.imag @ np.array([rng.uniform_in(-0.45, 0.45) for _ in range(g)])
         for _ in range(4)]
    for k in (2, 3):
        m = np.array([rng.uniform_in(-3, 3) for _ in range(g)]).round()
        m[(k - 2) % g] = k - 1.0
        Z[k] = Z[k] + E @ m
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
    assert h.hexdigest() == (
        "816a704c25afc1b0634e6e5b2fb7ef603266698aefd1aceafa383f1f5606eea7")


def test_halved_is_the_fresh_half_matrix():
    """B.halved() scales B exactly: its entries, (Im B)^-1 and lam_min are
    bit for bit those of PeriodMatrix(B / 2), for g = 1 to 3."""
    rng = Xoshiro256(77)
    for k in range(300):
        g = 1 + k % 3
        Q = np.array([[rng.normal() for _ in range(g)] for _ in range(g)])
        S = np.array([[rng.uniform_in(-0.5, 0.5) for _ in range(g)] for _ in range(g)])
        scale = 10.0 ** rng.uniform_in(-2.0, 1.0)
        B = PeriodMatrix(S + S.T + 1j * (scale * Q @ Q.T + 0.01 * np.eye(g)))
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
