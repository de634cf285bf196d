"""Wave-series recursion tests: orbits, residues, periodic normalization."""

import numpy as np
import pytest

from theta_secant.dynamics import DiscreteTau, PerturbedTau, find_tau_zero
from theta_secant.errors import NonPeriodic, ValidationError, WindowExhausted
from theta_secant.series import (
    SemidiscreteSystem,
    SeriesTable,
    discrete_recursion_residual,
    discrete_residue_consistency,
    discrete_series_extend,
    new_semidiscrete_table,
    semidiscrete_cyclic_defect,
    semidiscrete_resubstitution,
    semidiscrete_series_extend,
    tau_u_fn,
)
from theta_secant.theta import PeriodMatrix

B_I = PeriodMatrix([[1j]])
U1 = np.array([0.35 + 0.05j])
V1 = np.array([0.21 - 0.13j])
Z1 = np.array([0.12 + 0.33j])


class TestDiscreteOrbit:
    def test_zero_potential_telescopes(self):
        table = SeriesTable()
        u0 = lambda x, nu: 0j
        discrete_series_extend(table, u0, anchor=0.3 + 0.1j, nu=1.0, s=0,
                               seeds={0: 1.0 + 0j}, k_range=(-3, 3))
        vals = [table.xi(1, 1.0, k) for k in range(-3, 4)]
        assert all(v == 1.0 + 0j for v in vals)

    def test_theta_recursion_self_consistent(self):
        tau = DiscreteTau(U1, V1, Z1, B_I)
        table = SeriesTable()
        u = tau_u_fn(tau)
        discrete_series_extend(table, u, anchor=0.25 + 0.1j, nu=0.0, s=0,
                               seeds={0: 0.7 - 0.2j}, k_range=(-4, 4))
        assert discrete_recursion_residual(table, u, 0.0, 0) <= 1e-12

    def test_missing_level_raises(self):
        table = SeriesTable()
        with pytest.raises(WindowExhausted):
            table.xi(1, 0.0, 2)
        with pytest.raises(WindowExhausted):
            table.xi_at_x(1, 0.0, 1.37)

    def test_orbit_cap(self):
        table = SeriesTable()
        with pytest.raises(WindowExhausted):
            discrete_series_extend(table, lambda x, nu: 0j, 0j, 0.0, 0,
                                   {0: 1.0}, (0, 100))


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
        guess = None
        tau = DiscreteTau(U1, V1, Z1, B_I)
        for k in range(4):
            nu = 0.5 * k
            guess = find_tau_zero(tau, nu, guess)
            mis, _, _ = discrete_residue_consistency(U1, V1, Z1, B_I, nu=nu,
                                                     s=0, x_guess=guess)
            assert mis <= 1e-8

    def test_perturbed_control(self):
        tau = DiscreteTau(U1, V1, Z1, B_I)
        eta0 = find_tau_zero(tau, 0.0)
        pert = PerturbedTau(tau, 0.05, x_ref=eta0 + 0.5, mode="oscillatory")
        for s in (0, 1):
            mis, _, _ = discrete_residue_consistency(U1, V1, Z1, B_I, nu=0.0,
                                                     s=s, tau=pert)
            assert mis >= 1e-2

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
        worst = max(abs(table.xi(1, 2, x)
                        - (sd_system.v(x, 0.1) - sd_system.v(0, 0.1)))
                    for x in range(5))
        assert worst <= 1e-12

    def test_resubstitution_levels(self, sd_system):
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        semidiscrete_series_extend(table, sd_system, 0)
        assert semidiscrete_resubstitution(table, sd_system, 0) <= 1e-12
        semidiscrete_series_extend(table, sd_system, 1)
        assert semidiscrete_resubstitution(table, sd_system, 1) <= 1e-6

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
        assert all(table.xi(1, 2, x) == 0j for x in range(4))

    def test_skipping_normalization_leaves_defect(self, sd_system):
        table = new_semidiscrete_table(t_center=0.1, dt=0.01)
        semidiscrete_series_extend(table, sd_system, 0)
        semidiscrete_series_extend(table, sd_system, 1, skip_normalization=True)
        assert semidiscrete_cyclic_defect(table, sd_system, 2) >= 1e-3
