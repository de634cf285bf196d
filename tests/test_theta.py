"""Theta engine tests against an independent brute-force lattice sum."""

import cmath
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from theta_secant.errors import (DimensionMismatch, NonPosDef, NumericalError, RadiusCap,
                                 ValidationError)
from theta_secant.rng import Xoshiro256, random_siegel, random_z
from theta_secant.theta import (
    PeriodMatrix,
    ThetaRequest,
    half_period,
    lattice_distance,
    level_two_vector,
    level_two_vectors,
    normalized_log_abs_many,
    theta,
    theta_jet,
    theta_jets,
    truncation_radius,
    _ellipsoid_radius,
    _norm_octaves,
)
from theta_values import char_eps, rel_diff, to_complex, values


def hat_abs(z, B):
    """Normalized modulus of theta at the one point z."""
    Z = np.asarray(z, dtype=complex).reshape(1, -1)
    return float(np.exp(normalized_log_abs_many(theta_jets(Z, B), B, Z)[0]))


def theta_at(z, B, **kwargs):
    """theta_jets at the one point z: (mantissa, logscale) arrays of length 1
    of the highest jet key ("f", "d0" or "d01" for 0, 1 or 2 dirs)."""
    jets = theta_jets(np.asarray(z, dtype=complex).reshape(1, -1), B, **kwargs)
    return values(jets, list(jets.sums)[-1])


def fd_gap(z, B, dirs, h):
    """rel_diff of the analytic derivative along dirs (one direction, or two)
    and its central difference: (f(z+hV) - f(z-hV)) / 2h, or the four-point
    cross difference; both are O(h^2) accurate."""
    analytic = theta_at(z, B, dirs=dirs)
    if len(dirs) == 1:
        (V,) = dirs
        steps, weights = [h * V, -h * V], [0.5 / h, -0.5 / h]
    else:
        V, W = dirs
        steps = [h * V + h * W, h * V - h * W, -h * V + h * W, -h * V - h * W]
        weights = [0.25 / h ** 2 * w for w in (1, -1, -1, 1)]
    f, ls = values(theta_jets(np.array([z + d for d in steps]), B))
    ref = ls.max()
    fd = sum(w * v for w, v in zip(weights, f * np.exp(ls - ref)))
    return float(rel_diff(analytic, (fd, ref))[0])


def brute_theta(z, B, eps=None, delta=None, R=12, derivs=()):
    """Direct nested-loop lattice sum; deliberately shares no code paths
    with the production evaluator."""
    z = [complex(v) for v in np.atleast_1d(z)]
    B = np.atleast_2d(np.asarray(B, complex))
    g = B.shape[0]
    eps = [0.0] * g if eps is None else list(eps)
    delta = [0.0] * g if delta is None else list(delta)
    total = 0j
    for m in itertools.product(range(-R, R + 1), repeat=g):
        n = [m[i] + eps[i] for i in range(g)]
        quad = sum(B[i][j] * n[i] * n[j] for i in range(g) for j in range(g))
        lin = sum((z[i] + delta[i]) * n[i] for i in range(g))
        term = cmath.exp(1j * cmath.pi * quad + 2j * cmath.pi * lin)
        for d in derivs:
            term *= 2j * cmath.pi * sum(d[i] * n[i] for i in range(g))
        total += term
    return total


B_I = PeriodMatrix([[1j]])


class TestValues:
    def test_theta_zero_argument_oracle(self):
        # frozen from the brute-force sum at radius 12
        expected = brute_theta([0j], [[1j]], R=12)
        assert abs(expected - 1.0864348112133080) < 1e-13
        got = to_complex(theta_at([0j], B_I))[0]
        assert abs(got - expected) < 1e-13

    def test_against_brute_force_seeded(self):
        rng = Xoshiro256(101)
        for k in range(8):
            g = 1 + (k % 2)
            B = random_siegel(rng, g)
            z = random_z(rng, g, scale=0.5)
            got = to_complex(theta_at(z, B))[0]
            want = brute_theta(z, B.entries, R=12)
            assert abs(got - want) <= 1e-11 * (abs(want) + 1)

    def test_derivatives_against_brute_force(self):
        rng = Xoshiro256(102)
        B = random_siegel(rng, 2)
        z = random_z(rng, 2, scale=0.4)
        V = np.array(rng.complex_vector(2))
        W = np.array(rng.complex_vector(2))
        got1 = to_complex(theta_at(z, B, dirs=(V,)))[0]
        want1 = brute_theta(z, B.entries, R=12, derivs=(V,))
        assert abs(got1 - want1) <= 1e-10 * (abs(want1) + 1)
        got2 = to_complex(theta_at(z, B, dirs=(V, W)))[0]
        want2 = brute_theta(z, B.entries, R=12, derivs=(V, W))
        assert abs(got2 - want2) <= 1e-9 * (abs(want2) + 1)

    def test_zero_at_odd_half_period(self):
        assert hat_abs(np.array([(1 + 1j) / 2]), B_I) <= 1e-10

    def test_deriv_vanishes_at_origin(self):
        d = to_complex(theta_at([0j], B_I, dirs=(np.array([1.0 + 0j]),)))
        f = to_complex(theta_at([0j], B_I))
        assert abs(d[0]) / abs(f[0]) <= 1e-10

    def test_argument_reduction_large_shift(self):
        # value at z + 40*B*e1 carries the quasi-periodicity factor in the
        # logscale; the normalized modulus is lattice invariant
        z = np.array([0.3 + 0.2j])
        big = z + 40 * B_I.entries[:, 0]
        assert hat_abs(big, B_I) == pytest.approx(hat_abs(z, B_I), rel=1e-9)


class TestSymmetries:
    def test_evenness_seeded(self):
        rng = Xoshiro256(7)
        worst = 0.0
        for k in range(120):
            B = random_siegel(rng, 1 + (k % 2))
            z = random_z(rng, B.g)
            worst = max(worst, rel_diff(theta_at(z, B), theta_at(-z, B))[0])
        assert worst <= 1e-12

    def test_quasi_periodicity_seeded(self):
        rng = Xoshiro256(8)
        worst = 0.0
        for k in range(40):
            B = random_siegel(rng, 1 + (k % 2))
            z = random_z(rng, B.g)
            for j in range(B.g):
                lhs = theta_at(z + B.entries[:, j], B)
                pref = -1j * np.pi * B.entries[j, j] - 2j * np.pi * z[j]
                f, ls = theta_at(z, B)
                rhs = f * cmath.exp(1j * pref.imag), ls + pref.real
                worst = max(worst, rel_diff(lhs, rhs)[0])
        assert worst <= 1e-10

    def test_integer_periodicity(self):
        z = np.array([0.37 + 0.21j])
        assert rel_diff(theta_at(z, B_I), theta_at(z + 1.0, B_I))[0] <= 1e-13


class TestTruncation:
    def test_radius_example_window(self):
        r = truncation_radius(B_I, np.array([0j]), 1e-14)
        assert 4 <= r <= 8

    def test_radius_monotone_in_tol(self):
        r_loose = truncation_radius(B_I, np.array([0j]), 1e-6)
        r_tight = truncation_radius(B_I, np.array([0j]), 1e-14)
        assert r_loose <= r_tight

    # Im B = 0.001: the certified radius (about 100 at tol 1e-14) exceeds
    # the default cap of 64
    def test_radius_cap(self):
        B = PeriodMatrix([[0.001j]])
        with pytest.raises(RadiusCap):
            truncation_radius(B, np.array([0j]), 1e-14)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("THETA_SECANT_CAP", "200")
        B = PeriodMatrix([[0.001j]])
        r = truncation_radius(B, np.array([0j]), 1e-14)
        assert 64 < r <= 200

    def test_cached_radius_matches_fresh_loop(self):
        rng = Xoshiro256(31)
        for k in range(40):
            B = random_siegel(rng, 1 + (k % 2))
            B = PeriodMatrix(B.entries * (0.1 + 0.9 * rng.uniform()))
            tol = 10.0 ** rng.uniform_in(-16, -4)
            norms = [2.0 * rng.uniform() for _ in range(k % 3)]
            fresh = _ellipsoid_radius(B, tol, _norm_octaves(norms))
            assert not B._radii
            for _ in range(2):   # a miss, then a hit
                assert truncation_radius(B, np.array([0j] * B.g), tol,
                                         deriv_norms=norms) == fresh
            assert B._radii == {(tol, _norm_octaves(norms)): fresh}

    def test_radius_is_pinned(self):
        """Smallest certified radii of 60 seeded matrices, lam_min from 0.01
        to 2, with random tolerances and derivative octaves (frozen from a
        gallop-and-bisect search)."""
        want = [34, 32, 27, 31, 32, 31, 18, 23, 25, 23, 19, 22, 15, 20, 20,
                14, 17, 18, 11, 16, 14, 15, 14, 12, 11, 13, 11, 10, 9, 10,
                8, 9, 10, 7, 8, 8, 7, 7, 7, 5, 5, 7, 6, 6, 6,
                6, 5, 5, 4, 5, 4, 5, 3, 5, 4, 5, 4, 4, 4, 4]
        rng = Xoshiro256(73)
        got = []
        for k in range(60):
            B = random_siegel(rng, 1 + (k % 2))
            lam = 10.0 ** (-2.0 + 2.3 * k / 59)
            B = PeriodMatrix(B.entries.real + 1j * B.im * (lam / B.lam_min))
            tol = 10.0 ** rng.uniform_in(-16, -4)
            norms = [2.0 ** rng.uniform_in(-7, 3) for _ in range(k % 3)]
            got.append(_ellipsoid_radius(B, tol, _norm_octaves(norms)))
        assert got == want

    def test_radius_cap_raised_on_every_call(self):
        B = PeriodMatrix([[0.001j]])
        for _ in range(2):
            with pytest.raises(RadiusCap):
                truncation_radius(B, np.array([0j]), 1e-14)

    def test_cap_env_read_on_every_call(self, monkeypatch):
        assert truncation_radius(B_I, np.array([0j]), 1e-14) > 2
        monkeypatch.setenv("THETA_SECANT_CAP", "2")
        with pytest.raises(RadiusCap):
            truncation_radius(B_I, np.array([0j]), 1e-14)

    def test_bad_tol_rejected(self):
        for tol in (1e-2, 1e-18):
            with pytest.raises(ValidationError):
                truncation_radius(B_I, np.array([0j]), tol)

    def test_radius_stability_oracle(self):
        rng = Xoshiro256(9)
        for k in range(20):
            B = random_siegel(rng, 1 + (k % 2))
            z = random_z(rng, B.g)
            r = truncation_radius(B, z, 1e-13)
            assert rel_diff(theta_at(z, B, radius=r),
                            theta_at(z, B, radius=r + 4))[0] <= 1e-13


class TestDerivativeChecks:
    def test_fd_first_order(self):
        assert fd_gap(np.array([0.3 + 0.2j]), B_I, (np.array([1.0 + 0j]),), 1e-4) <= 1e-7

    def test_fd_second_order(self):
        assert fd_gap(np.array([0.3 + 0.2j]), B_I, (np.array([1.0 + 0j]),) * 2, 1e-3) <= 1e-5

    def test_fd_at_even_zero_of_derivative(self):
        # well-defined via the floor
        assert fd_gap(np.array([0j]), B_I, (np.array([1.0 + 0j]),), 1e-4) <= 1.0


class TestLevelTwo:
    def test_components_at_origin_positive(self):
        vec = level_two_vector(np.array([0j]), B_I)
        for k in range(2):
            v = vec.coords[k] * np.exp(vec.logscale)
            want = brute_theta([0j], [[2j]], eps=char_eps(k, 1), R=10)
            assert v.real > 0 and abs(v.imag) < 1e-14
            assert abs(v - want) < 1e-12

    def test_even_and_integer_shift(self):
        rng = Xoshiro256(10)
        B = random_siegel(rng, 2)
        Z = random_z(rng, 2)
        a = level_two_vector(Z, B)
        b = level_two_vector(-Z, B)
        c = level_two_vector(Z + np.array([1.0, 0.0]), B)
        for v in (b, c):
            assert np.max(rel_diff((a.coords, a.logscale), (v.coords, v.logscale))) <= 1e-12

    def test_derivative_chain_factor(self):
        # level-two derivative must be d/ds theta[e,0](2(Z+sV) | 2B) at s=0
        rng = Xoshiro256(11)
        B = random_siegel(rng, 1)
        Z = random_z(rng, 1, 0.3)
        V = np.array([0.7 - 0.2j])
        def component(vec):
            return vec.coords[1] * np.exp(vec.logscale)

        dv = component(level_two_vector(Z, B, deriv_dir=V))
        h = 1e-5
        fp = component(level_two_vector(Z + h * V, B))
        fm = component(level_two_vector(Z - h * V, B))
        fd = (fp - fm) / (2 * h)
        assert abs(dv - fd) <= 1e-7 * (abs(dv) + 1)

    def test_parity_class_outside_the_ellipsoid(self):
        # for Im B this large and skew, the ellipsoid of B/2 misses two
        # parity classes; their components are far below the tolerance
        Y = np.array([[5691.746882614263, -177.69899393400672],
                      [-177.69899393400672, 332.38366522239556]])
        B = PeriodMatrix(2j * Y)
        z = np.array([0.2 + 1.3j, -0.1 + 0.4j])
        vec = level_two_vector(z, B)
        B4 = PeriodMatrix(4j * Y)
        # theta[eps,0](w | B4) = exp(pi i (B4 eps, eps) + 2 pi i (w, eps))
        #                        * theta(w + B4 eps | B4)
        want = []
        for k in range(4):
            eps = np.array(char_eps(k, 2))
            f, ls = theta_at(2 * z + B4.entries @ eps, B4)
            pref = 1j * np.pi * (eps @ B4.entries @ eps) + 2j * np.pi * (2 * z @ eps)
            want.append((f * np.exp(1j * pref.imag), ls + pref.real))
        ref = max(ls[0] for _, ls in want)
        got = vec.coords * np.exp(vec.logscale - ref)
        exact = np.array([f[0] * np.exp(ls[0] - ref) for f, ls in want])
        assert np.all(np.isfinite(vec.coords))
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


class TestBatch:
    def test_shapes_and_keys(self):
        rng = Xoshiro256(12)
        B = random_siegel(rng, 2)
        Z = np.array([random_z(rng, 2) for _ in range(5)])
        V = np.array(rng.complex_vector(2))
        jets = theta_jets(Z, B, dirs=(V, V))
        assert len(jets.logscale) == 5 and set(jets.sums) == {"f", "d0", "d1", "d01"}
        assert all(v.shape == (5,) for v in jets.sums.values())
        vecs = level_two_vectors(Z, B, deriv_dir=V)
        assert set(vecs) == {"f", "d0"} and all(len(v) == 5 for v in vecs.values())
        hats = np.exp(normalized_log_abs_many(theta_jets(Z, B), B, Z))
        assert np.allclose(hats, [hat_abs(z, B) for z in Z], rtol=1e-12)

    def test_a_long_pass_works_in_bounded_blocks(self):
        """A 20 000-point, one-direction pass at B = i (11 lattice terms)
        runs in blocks of PASS_TERMS terms: its traced peak stays under
        4 MB, where one block of all its points peaks at 16 MB."""
        rng = np.random.default_rng(3)
        Z = rng.uniform(-3.0, 3.0, (20000, 1)) + 1j * rng.uniform(-3.0, 3.0, (20000, 1))
        V = np.ones(1, complex)
        theta_jets(Z[:1], B_I, dirs=(V,))      # radius and ellipsoid cached first
        tracemalloc.start()
        try:
            theta_jets(Z, B_I, dirs=(V,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_wrong_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            theta_jets(np.zeros(2, complex), B_I)
        with pytest.raises(DimensionMismatch):
            theta_jets(np.zeros((3, 2), complex), B_I)
        with pytest.raises(DimensionMismatch):
            level_two_vectors(np.zeros((3, 1), complex), B_I,
                              deriv_dir=np.ones(2, complex))


class TestValidation:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError):
            PeriodMatrix([[1j, 0.5], [0.2, 1j]])

    @pytest.mark.parametrize("entries", [
        [[np.nan + 1j]],                            # NaN on the diagonal
        [[1j, np.inf], [np.inf, 1j]],               # infinite off the diagonal
        [[1j, np.nan], [np.nan, 1j]],               # NaN off the diagonal
        [[0j, 0j], [0j, 0j]],                       # all zero
    ])
    def test_non_finite_or_zero_matrix_rejected(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite entries"):
                PeriodMatrix(entries)

    @pytest.mark.parametrize("z", [[np.nan + 0j, 0.1j], [0.1 + np.nan * 1j, 0.2j],
                                   [np.inf + 0j, 0.1j], [0.1 + 0j, np.inf * 1j]])
    def test_non_finite_point_is_numerical_error(self, z):
        # a point that is not finite takes the array path of step 1, which
        # rejects it
        B = PeriodMatrix([[0.2 + 1.1j, 0.3 + 0.2j], [0.3 + 0.2j, -0.1 + 0.9j]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError):
                theta(ThetaRequest(np.array(z), B))

    @pytest.mark.parametrize("z", [[np.nan, 0.1j], [np.inf, 0.1j], [complex(0.0, np.inf), 0.1j]])
    def test_non_finite_row_rejected_before_the_pass(self, z):
        # alone and inside a batch, with no RuntimeWarning on the way
        B = PeriodMatrix([[0.2 + 1.1j, 0.3 + 0.2j], [0.3 + 0.2j, -0.1 + 0.9j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for Z in ([z], [[0.3, 0.1j], z], [z, [0.3, 0.1j], [0.1, 0.2]]):
                for dirs in ((), ([1.0, 0.5j],)):
                    with pytest.raises(NumericalError, match="not finite"):
                        theta_jets(np.array(Z), B, dirs=dirs)
            with pytest.raises(NumericalError, match="not finite"):
                lattice_distance(z, B)

    def test_non_posdef_rejected(self):
        with pytest.raises(NonPosDef):
            PeriodMatrix([[1.0 + 0j]])

    def test_too_many_dirs(self):
        with pytest.raises(ValidationError):
            theta_at([0j], B_I, dirs=(np.array([1.0]),) * 3)

    def test_number_direction_rejected(self):
        """A direction has shape (g,) for g = 1 too: a bare number is not one."""
        with pytest.raises(DimensionMismatch):
            theta_at([0j], B_I, dirs=(1.0,))

    @pytest.mark.parametrize("entry", ["theta_jet", "theta_jets"])
    @pytest.mark.parametrize("dirs, error", [
        (([1, 0, 5],), DimensionMismatch),          # longer than g
        (([1],), DimensionMismatch),                # shorter than g
        (([1, 0], [0, 1], [1, 1]), ValidationError),
    ], ids=["long", "short", "three"])
    def test_bad_directions_rejected(self, entry, dirs, error):
        B = PeriodMatrix([[1j, 0.2], [0.2, 1.3j]])
        z = np.array([0.1 + 0.2j, -0.3j])
        calls = {"theta_jet": lambda: theta_jet(z, B, dirs=dirs),
                 "theta_jets": lambda: theta_jets(z[None], B, dirs=dirs)}
        with pytest.raises(error):
            calls[entry]()


def test_half_periods_count_and_reduction():
    hps = [half_period(B_I, k) for k in range(4 ** B_I.g)]
    assert len(hps) == 4
    for h in hps:
        assert lattice_distance(2.0 * h, B_I) <= 1e-12
