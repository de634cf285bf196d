"""Wave-series recursion tests: residues, periodic normalization."""

from fractions import Fraction

import numpy as np
import pytest

from theta_secant.dynamics import DiscreteTau, PerturbedTau, find_tau_zero
from theta_secant.errors import NonPeriodic, ValidationError, WindowExhausted
from theta_secant.series import (
    _D5,
    _Q5,
    RESIDUE_SEED,
    SemidiscreteSystem,
    discrete_residue_consistency,
    new_semidiscrete_table,
    semidiscrete_cyclic_defect,
    semidiscrete_resubstitution,
    semidiscrete_series_extend,
)
from theta_secant.theta import PeriodMatrix

B_I = PeriodMatrix([[1j]])
U1 = np.array([0.35 + 0.05j])
V1 = np.array([0.21 - 0.13j])
Z1 = np.array([0.12 + 0.33j])


class TestResidueConsistency:
    def test_s0_and_s1(self):
        for s in (0, 1):
            mis, eta, gap = discrete_residue_consistency(U1, V1, Z1, B_I,
                                                         nu=0.0, s=s)
            assert mis <= 1e-8
            if s == 1:
                # xi_1(eta+1) = xi_1(eta-1) forced by u(eta, nu-1) = 0
                assert gap <= 1e-9

    def test_sweep_of_levels(self):
        for k in range(4):
            mis, _, _ = discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.5 * k, s=0)
            assert mis <= 1e-8

    def test_perturbed_control(self):
        tau = DiscreteTau(U1, V1, Z1, B_I)
        eta0 = find_tau_zero(tau, 0.0)
        pert = PerturbedTau(tau, 0.05, x_ref=eta0 + 0.5, mode="oscillatory")
        for s in (0, 1):
            mis, _, _ = discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.0,
                                                     s=s, tau=pert)
            assert mis >= 1e-2

    def test_s1_is_one_pass(self, lattice_passes):
        # past the zero search, s = 0 makes one 7-point pass and s = 1 one
        # 11-point pass: the seven residue points and the four factors of
        # u(eta, nu-1)
        discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.5, s=0)
        search = lattice_passes[:-1]
        assert lattice_passes[-1] == (7, False)
        lattice_passes.clear()
        discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.5, s=1)
        assert lattice_passes == search + [(11, False)]

    def test_s1_steps_xi1_by_the_recursion(self, monkeypatch):
        # u(eta, nu-1) is read at x = (eta - 1) + 1, where the recursion steps
        # xi_1 from eta-1 to eta+1; at nu = 1.5 that x rounds away from eta
        tau = DiscreteTau(U1, V1, Z1, B_I)
        jets, calls = tau.jets, []

        def recording(xs, ts):
            calls.append((xs, ts))
            return jets(xs, ts)

        monkeypatch.setattr(tau, "jets", recording)
        nu = 1.5
        _, eta, gap = discrete_residue_consistency(U1, V1, Z1, B_I, nu=nu, s=1,
                                                   tau=tau)
        x, n = (eta - 1.0) + 1.0, nu - 1.0
        assert x != eta
        xs, ts = calls[-1]
        assert xs[7:].tolist() == [x, x, x - 1.0, x + 1.0]
        assert ts[7:].tolist() == [n + 1.0, n - 1.0, n, n]
        # xi_1(eta+1) = xi_1(eta-1) - u, u bitwise its own 4-point pass
        f, _, _, g = jets(xs[7:], ts[7:])
        u = complex(f[0] * f[1] / (f[2] * f[3]) * np.exp(g[0] + g[1] - g[2] - g[3]))
        assert gap == abs((RESIDUE_SEED - u) - RESIDUE_SEED)
        assert gap <= 1e-9

    def test_bad_s_rejected(self):
        with pytest.raises(ValidationError):
            discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.0, s=2)


@pytest.fixture(scope="module")
def sd_system():
    return SemidiscreteSystem(np.array([0.2 + 0j]), V1, Z1 + 0.1, B_I, N=5)


class TestSemidiscrete:
    def test_non_periodic_rejected(self):
        with pytest.raises(NonPeriodic):
            SemidiscreteSystem(np.array([0.21 + 0j]), V1, Z1, B_I, N=5)

    def test_xi1_matches_log_derivative(self, sd_system):
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        semidiscrete_series_extend(table, sd_system, 0)
        worst = max(abs(table.levels[1][2, x]
                        - (sd_system.v(x, 0.1) - sd_system.v(0, 0.1)))
                    for x in range(5))
        assert worst <= 1e-12

    def test_resubstitution_levels(self, sd_system):
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        semidiscrete_series_extend(table, sd_system, 0)
        assert semidiscrete_resubstitution(table, sd_system, 0) <= 1e-12
        semidiscrete_series_extend(table, sd_system, 1)
        assert semidiscrete_resubstitution(table, sd_system, 1) <= 1e-6

    def test_non_uniform_stencil_rejected(self):
        # at t = 1e10 (one ulp is 1.9e-6) steps of 0.001 round to different
        # widths; steps of 0.01 happen to round alike there
        with pytest.raises(ValidationError):
            new_semidiscrete_table(t_center=1e10, dt=0.001)
        new_semidiscrete_table(t_center=1e10, dt=0.01)

    def test_missing_level_raises(self, sd_system):
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        assert np.array_equal(table.level(0, 5), np.ones((5, 5)))
        with pytest.raises(WindowExhausted):
            table.level(1, 5)
        with pytest.raises(WindowExhausted):
            semidiscrete_resubstitution(table, sd_system, 0)
        with pytest.raises(WindowExhausted):
            semidiscrete_series_extend(table, sd_system, 1)

    def test_zero_rhs_constant(self):
        class NullSystem:
            N = 4

            def u(self, x, t):
                return 0j

            def vdot(self, x, t):
                return 0j

            def v(self, x, t):
                return 0j

            def check_periodic(self, t):
                return 0.0

        table = new_semidiscrete_table(t_center=0.0, dt=0.01)
        semidiscrete_series_extend(table, NullSystem(), 0)
        assert table.levels[1].shape == (5, 4)
        assert np.array_equal(table.levels[1], np.zeros((5, 4)))

    def test_skipping_normalization_leaves_defect(self, sd_system):
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        semidiscrete_series_extend(table, sd_system, 0)
        semidiscrete_series_extend(table, sd_system, 1, skip_normalization=True)
        assert semidiscrete_cyclic_defect(table, sd_system, 2) >= 1e-3

    def test_normalization_cancels_the_mean(self, sd_system):
        # resubstitution reads only the centre row, where c = 0, so only the
        # off-centre rows show whether c_s' = -mean_x(rhs) holds: the mean
        # of xi_1' + u xi_1 must vanish at every stencil time
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        semidiscrete_series_extend(table, sd_system, 0)
        semidiscrete_series_extend(table, sd_system, 1)
        N, level = sd_system.N, table.levels[1]
        u = sd_system.u(np.tile(np.arange(N, dtype=float), (5, 1)),
                        np.repeat(np.array(table.ts)[:, None], N, axis=1))
        mean = (_D5 @ level / table.dt + u * level).mean(axis=1)
        assert np.max(np.abs(mean)) <= 1e-5


def _lagrange_integral(k: int, b: int) -> Fraction:
    """Integral from 0 to b of the Lagrange basis polynomial of node k on
    the unit stencil -2..2, exact."""
    nodes = range(-2, 3)
    coeffs = [Fraction(1)]                      # lowest degree first
    for x in nodes:
        if x != k - 2:
            coeffs = [Fraction(0)] + coeffs     # times t, then minus x
            for d in range(len(coeffs) - 1):
                coeffs[d] -= x * coeffs[d + 1]
            coeffs = [a / (k - 2 - x) for a in coeffs]
    return sum(a * Fraction(b) ** (d + 1) / (d + 1) for d, a in enumerate(coeffs))


class TestIntegrationWeights:
    def test_weights_are_the_exact_integrals(self):
        for j in range(5):
            for k in range(5):
                assert _Q5[j, k] == float(_lagrange_integral(k, j - 2)), (j, k)
        assert not _Q5[2].any()

    @pytest.mark.parametrize("dt", [0.01, 0.37, 3.0])
    def test_monomials_integrate_exactly(self, dt):
        ts = [(k - 2) * dt for k in range(5)]
        for n in range(5):
            for j in range(5):
                c = -dt * sum(_Q5[j, k] * ts[k] ** n for k in range(5))
                assert c == pytest.approx(-ts[j] ** (n + 1) / (n + 1), rel=1e-15, abs=0)


class _NoLapack:
    """Stands in for numpy's LAPACK gufunc module: any routine raises."""

    def __getattr__(self, name):
        raise AssertionError(f"LAPACK routine {name} called")


def test_series_steps_call_no_lapack(monkeypatch):
    """The benchmark's series steps run with every LAPACK routine of
    numpy.linalg raising (np.polyfit's lstsq among them)."""
    linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2, numpy 1
    monkeypatch.setattr(linalg, "_umath_linalg", _NoLapack())
    for call in (lambda: np.linalg.inv(np.eye(2)),
                 lambda: np.polyfit(np.arange(5.0), np.ones(5), 4)):
        with pytest.raises(AssertionError, match="LAPACK"):
            call()
    B = PeriodMatrix([[1j]])
    for s in (0, 1):
        discrete_residue_consistency(U1, V1, Z1, B, 0.0, s)
    system = SemidiscreteSystem(np.array([0.2 + 0j]), V1, Z1 + 0.1, B, N=5)
    table = new_semidiscrete_table(t_center=0.1, dt=0.01)
    for s in (0, 1):
        semidiscrete_series_extend(table, system, s)
        semidiscrete_resubstitution(table, system, s)
    table = new_semidiscrete_table(t_center=0.1, dt=0.01)
    semidiscrete_series_extend(table, system, 0)
    semidiscrete_series_extend(table, system, 1, skip_normalization=True)
