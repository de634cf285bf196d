"""Kummer map, collinearity, and secancy fit tests."""

import numpy as np
import pytest

from theta_secant.errors import (CoincidentPoints, DimensionMismatch, NumericalError,
                                 RankDeficient)
from theta_secant.kummer import (
    _check_distinct,
    collinearity_defect,
    fit_secancy_discrete,
    fit_secancy_semidiscrete,
    kummer_map,
)
from theta_secant.rng import Xoshiro256, random_siegel, random_z
from theta_secant.theta import (PeriodMatrix, half_period, level_two_vector,
                                level_two_vectors)


def _projective_gap(p, q) -> float:
    """Gap between projective points, 0 iff equal up to one complex scale:
    the norm of the phase-aligned difference of the unit vectors, accurate
    down to machine precision (1 - |<a,b>|^2 loses half the digits near
    equality)."""
    a = p.coords / np.linalg.norm(p.coords)
    b = q.coords / np.linalg.norm(q.coords)
    c = np.vdot(b, a)
    return float(np.linalg.norm(a - (c / abs(c)) * b))


class TestKummerMap:
    def test_even(self):
        rng = Xoshiro256(51)
        B = random_siegel(rng, 2)
        for _ in range(5):
            Z = random_z(rng, 2)
            assert _projective_gap(kummer_map(Z, B), kummer_map(-Z, B)) <= 1e-12

    # NaN, inf or inf i in either part; the point is rejected before the
    # pass, so no RuntimeWarning (an error under pytest) escapes from it
    @pytest.mark.parametrize("z", [[np.nan, 0.1j], [complex(0.1, np.nan), 0.2j],
                                   [np.inf, 0.1j], [complex(0.0, np.inf), 0.1j],
                                   [0.3, complex(-np.inf, 0.2)]])
    def test_non_finite_point_raises(self, z):
        B = PeriodMatrix([[1.1j, 0.2 + 0.3j], [0.2 + 0.3j, 0.9j]])
        for call in (lambda: level_two_vector(z, B), lambda: kummer_map(z, B),
                     lambda: level_two_vectors(np.array([[0.3, 0.1j], z]), B)):
            with pytest.raises(NumericalError, match="not finite"):
                call()

    def test_integer_shift_exact(self):
        rng = Xoshiro256(52)
        B = random_siegel(rng, 2)
        Z = random_z(rng, 2)
        shifted = kummer_map(Z + np.array([1.0, 0.0]), B)
        assert _projective_gap(kummer_map(Z, B), shifted) <= 1e-12

    def test_b_shift_projective(self):
        rng = Xoshiro256(53)
        B = random_siegel(rng, 2)
        Z = random_z(rng, 2)
        shifted = kummer_map(Z + B.entries[:, 1], B)
        assert _projective_gap(kummer_map(Z, B), shifted) <= 1e-10


class TestCollinearity:
    def test_repeated_point_collinear(self):
        rng = Xoshiro256(54)
        B = random_siegel(rng, 2)
        p1 = kummer_map(random_z(rng, 2), B)
        p3 = kummer_map(random_z(rng, 2), B)
        assert collinearity_defect(p1, p1, p3) <= 1e-14

    def test_random_points_not_collinear(self):
        # regression baseline for the seeded negative control
        rng = Xoshiro256(99)
        B = random_siegel(rng, 2)
        pts = [kummer_map(random_z(rng, 2), B) for _ in range(3)]
        assert collinearity_defect(*pts) >= 1e-2

    def test_fay_triple_collinear(self, discrete_fit):
        assert collinearity_defect(*discrete_fit.vectors) <= 1e-7

    def test_dimension_mismatch(self):
        rng = Xoshiro256(55)
        p1 = kummer_map(random_z(rng, 1), random_siegel(rng, 1))
        p2 = kummer_map(random_z(rng, 2), random_siegel(rng, 2))
        with pytest.raises(DimensionMismatch):
            collinearity_defect(p1, p1, p2)

    def test_lattice_translation_invariance(self, x5m1, fay_data, discrete_fit):
        B = x5m1.B
        U, V = fay_data["U"], fay_data["V"]
        As = discrete_fit.As
        args = [(As - U - V) / 2, (As + U - V) / 2, (As + V - U) / 2]
        base = collinearity_defect(*[kummer_map(a, B) for a in args])
        shift = B.entries[:, 0] + np.array([0.0, 1.0])
        moved = collinearity_defect(*[kummer_map(a + shift, B) for a in args])
        assert abs(base - moved) <= 1e-10


class TestDiscreteFit:
    def test_genus1_square_system(self):
        B = PeriodMatrix([[1j]])
        rng = Xoshiro256(56)
        for _ in range(3):
            U, V, A = (random_z(rng, 1, 0.3) for _ in range(3))
            fit = fit_secancy_discrete(U, V, A, B)
            assert fit.residual <= 1e-12

    def test_jacobian_data(self, discrete_fit):
        assert discrete_fit.residual <= 1e-8
        assert np.isclose(np.exp(discrete_fit.p), discrete_fit.exp_p)
        assert np.isclose(np.exp(discrete_fit.E), discrete_fit.exp_E)

    def test_random_control(self, x5m1):
        rng = Xoshiro256(57)
        U, V, A = (random_z(rng, 2, 0.35) for _ in range(3))
        assert fit_secancy_discrete(U, V, A, x5m1.B).residual >= 1e-2

    def test_coincident_precondition(self, x5m1):
        rng = Xoshiro256(58)
        U = random_z(rng, 2, 0.3)
        with pytest.raises(CoincidentPoints):
            fit_secancy_discrete(U, U, random_z(rng, 2, 0.3), x5m1.B)

    def test_non_finite_secancy_vector_rejected(self):
        # lattice_distance raises, so NaN is never compared with 1e-8
        B = PeriodMatrix([[1.1j, 0.2 + 0.3j], [0.2 + 0.3j, 0.9j]])
        for vec in ([np.nan, 0.1j], [0.3, complex(np.inf, 0.2)]):
            with pytest.raises(NumericalError, match="not finite"):
                _check_distinct(B, [("U-V", np.array(vec))])

    def test_rank_deficient_detected(self, monkeypatch):
        import theta_secant.kummer as km
        B = PeriodMatrix([[1j]])

        class FakeVec:
            logscale = 0.0
            coords = np.array([1.0 + 0j, 2.0 + 0j])

        monkeypatch.setattr(km, "level_two_vectors",
                            lambda Z, *a, **k: {"f": [FakeVec()] * len(Z)})
        rng = Xoshiro256(59)
        with pytest.raises(RankDeficient):
            km.fit_secancy_discrete(random_z(rng, 1), random_z(rng, 1),
                                    random_z(rng, 1), B)


class TestSemidiscreteFit:
    def test_genus1_square_system(self):
        B = PeriodMatrix([[1j]])
        rng = Xoshiro256(60)
        U, V, A = (random_z(rng, 1, 0.3) for _ in range(3))
        fit = fit_secancy_semidiscrete(U, V, A, B)
        assert fit.residual <= 1e-12

    def test_degenerated_jacobian_data(self, semidiscrete_fit):
        assert semidiscrete_fit.residual <= 1e-7

    def test_random_control(self, x5m1):
        rng = Xoshiro256(61)
        U, V, A = (random_z(rng, 2, 0.35) for _ in range(3))
        assert fit_secancy_semidiscrete(U, V, A, x5m1.B).residual >= 1e-2

    def test_discrimination_gap_twenty_trials(self, x5m1):
        """Ten Jacobian fits versus ten random-vector fits: gap >= 1e4."""
        from theta_secant.cli import jacobian_fay_data
        rng = Xoshiro256(62)
        worst_pos = 0.0
        for _ in range(10):
            U, V, A, _ = jacobian_fay_data(x5m1, rng)
            worst_pos = max(worst_pos,
                            fit_secancy_discrete(U, V, A, x5m1.B).residual)
        ctrl = rng.spawn(5)
        best_neg = min(fit_secancy_discrete(random_z(ctrl, 2, 0.35),
                                            random_z(ctrl, 2, 0.35),
                                            random_z(ctrl, 2, 0.35),
                                            x5m1.B).residual
                       for _ in range(10))
        assert best_neg / worst_pos >= 1e4

    def test_scaling_covariance(self, x5m1, tangent_data, semidiscrete_fit):
        """lam * V rescales (e^p, E) by lam and keeps the residual."""
        U, V, A = tangent_data["U"], tangent_data["V"], tangent_data["A"]
        for lam in (0.5, 1.7, 2.0):
            fit = fit_secancy_semidiscrete(U, lam * V, A, x5m1.B)
            assert abs(fit.exp_p / semidiscrete_fit.exp_p - lam) <= 1e-8 * lam
            assert abs(fit.E / semidiscrete_fit.E - lam) <= 1e-8 * lam
            assert abs(fit.residual - semidiscrete_fit.residual) <= 1e-10


def assert_same_vector(got, want):
    assert np.array_equal(got.coords, want.coords) and got.logscale == want.logscale


class TestFitReturnsItsAnswer:
    """A fit returns the shifted A it solved at and that shift's vectors,
    bitwise as the one-point functions give them."""

    def test_discrete(self, x5m1, fay_data, discrete_fit):
        B = x5m1.B
        U, V = fay_data["U"], fay_data["V"]
        As = fay_data["A"] + half_period(B, discrete_fit.calibration_shift)
        assert np.array_equal(discrete_fit.As, As)
        args = [(As - U - V) / 2, (As + U - V) / 2, (As + V - U) / 2]
        assert len(discrete_fit.vectors) == 3
        for got, arg in zip(discrete_fit.vectors, args):
            assert_same_vector(got, kummer_map(arg, B))

    def test_semidiscrete(self, x5m1, tangent_data, semidiscrete_fit):
        B = x5m1.B
        U, V = tangent_data["U"], tangent_data["V"]
        As = tangent_data["A"] + half_period(B, semidiscrete_fit.calibration_shift)
        assert np.array_equal(semidiscrete_fit.As, As)
        want = [kummer_map((As - U) / 2, B), kummer_map((As + U) / 2, B),
                level_two_vector((As - U) / 2, B, deriv_dir=V)]
        assert len(semidiscrete_fit.vectors) == 3
        for got, w in zip(semidiscrete_fit.vectors, want):
            assert_same_vector(got, w)


@pytest.mark.parametrize("kind", ["discrete", "semidiscrete"])
def test_fit_is_one_lattice_pass(lattice_passes, x5m1, fay_data, tangent_data, kind):
    """All 4^g shifts x (3 value vectors, or 2 value vectors with their
    V-derivatives) are one binned pass."""
    if kind == "discrete":
        fit = fit_secancy_discrete(fay_data["U"], fay_data["V"], fay_data["A"], x5m1.B)
        assert lattice_passes == [(3 * 16, True)]
    else:
        fit = fit_secancy_semidiscrete(tangent_data["U"], tangent_data["V"],
                                       tangent_data["A"], x5m1.B)
        assert lattice_passes == [(2 * 16, True)]
    assert fit.residual <= 1e-8
