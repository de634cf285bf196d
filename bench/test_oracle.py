"""Tests of the benchmark's theta oracle against closed forms and mpmath.

Run with:  python3 -m pytest -q bench/test_oracle.py
"""

import cmath
import random

import mpmath
import pytest

import oracle

mpmath.mp.dps = 40


def close(a, b, rel=1e-25):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def test_theta_at_i_closed_form():
    want = oracle.theta_zero_i()
    assert close(oracle.jtheta_jet(0.0, 1j)["f"], want)
    assert close(oracle.brute_jet([0.0], [[1j]])["f"], want)


@pytest.mark.parametrize("seed", range(6))
def test_brute_force_matches_jtheta_genus1(seed):
    rng = random.Random(seed)
    tau = complex(rng.uniform(-0.5, 0.5), rng.choice([0.05, 0.3, 1.0, 2.0]))
    z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.imag)
    d0 = cmath.rect(1.0, rng.uniform(0, 6.28))
    d1 = cmath.rect(0.7, rng.uniform(0, 6.28))
    for eps, delta in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        a = oracle.jtheta_jet(z, tau, (d0, d1), eps, delta)
        b = oracle.brute_jet([z], [[tau]], ([d0], [d1]), [eps], [delta])
        for key in ("f", "d0", "d1", "d01"):
            assert abs(a[key] - b[key]) <= 1e-25 * b.peak[key], (eps, delta, key)
            assert abs(a.peak[key] - b.peak[key]) <= 1e-9 * b.peak[key]


def test_genus2_diagonal_is_a_product():
    t1, t2 = 0.2 + 0.9j, -0.1 + 0.4j
    z = [0.13 - 0.2j, -0.31 + 0.05j]
    d = [0.6 + 0.2j, -0.3 + 0.5j]
    two = oracle.brute_jet(z, [[t1, 0j], [0j, t2]], (d, d))
    a = oracle.jtheta_jet(z[0], t1, (1.0, 1.0))
    b = oracle.jtheta_jet(z[1], t2, (1.0, 1.0))
    assert close(two["f"], a["f"] * b["f"])
    d = [mpmath.mpc(v) for v in d]
    d_prod = d[0] * a["d0"] * b["f"] + d[1] * a["f"] * b["d0"]
    assert close(two["d0"], d_prod)
    dd = (d[0] ** 2 * a["d01"] * b["f"] + 2 * d[0] * d[1] * a["d0"] * b["d0"]
          + d[1] ** 2 * a["f"] * b["d01"])
    assert close(two["d01"], dd)


def test_level_two_bins_match_characteristics():
    B = [[0.1 + 1.1j, 0.2 + 0.3j], [0.2 + 0.3j, -0.2 + 0.8j]]
    Z = [0.21 + 0.1j, -0.17 + 0.05j]
    V = [0.4 - 0.1j, 0.2 + 0.3j]
    lv = oracle.level_two(Z, B)
    dv = oracle.level_two(Z, B, deriv_dir=V)
    B2 = [[2 * v for v in row] for row in B]
    for k in range(4):
        eps = [0.5 * ((k >> 1) & 1), 0.5 * (k & 1)]
        ref = oracle.brute_jet([2 * v for v in Z], B2, ([2 * v for v in V],), eps)
        assert close(lv["f"][k], ref["f"])
        assert close(dv["d0"][k], ref["d0"])


def test_tail_bound_dominates_the_series_tail():
    # genus 1, Y = 0.05: sum the tail beyond R directly and compare
    Y, R = 0.05, 2.0
    bound = oracle._tail_bound(R, 1, [1.0 / Y], 1.0, [])
    tail = sum(mpmath.exp(-mpmath.pi * Y * n * n) for n in range(-400, 401)
               if Y * n * n > R * R)
    assert tail <= bound
