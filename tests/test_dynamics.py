"""Zero tracking, the second-order zero law, and particle dynamics."""

import warnings

import numpy as np
import pytest

import theta_secant.dynamics as dynamics
from theta_secant.dynamics import (
    DiscreteTau,
    EllipticKernel,
    PerturbedTau,
    RationalKernel,
    RSState,
    ThetaTau,
    TrigKernel,
    cm5_residual,
    elliptic_zero_crosscheck,
    f2d_residual,
    find_tau_zero,
    rs_integrate,
    track_tau_zero,
    track_zero,
)
from theta_secant.errors import Collision, GuardFailed, LostZero, ValidationError
from theta_secant.rng import Xoshiro256
from theta_secant.theta import PeriodMatrix, gauss_exponent, theta_jet, theta_jets

B_I = PeriodMatrix([[1j]])
U1 = np.array([0.85 + 0.00j])
V1 = np.array([-0.25 + 0.10j])
Z1 = np.array([0.05 + 0.21j])
GRID = np.linspace(0.0, 0.5, 101)


@pytest.fixture(scope="module")
def tracked():
    return track_tau_zero(U1, V1, Z1, B_I, GRID)


class TestTracking:
    def test_zero_residuals_along_path(self, tracked):
        assert tracked.tau_abs.max() <= 1e-10

    def test_genus1_zero_moves_linearly(self, tracked):
        # theta of genus 1 has one zero per cell, so eta(t) is affine in t
        eta = tracked.eta
        fit = np.polyfit(GRID, eta, 1)
        assert np.max(np.abs(np.polyval(fit, GRID) - eta)) <= 1e-9

    def test_static_when_v_zero(self):
        path = track_tau_zero(U1, np.zeros(1, complex), Z1, B_I,
                              np.linspace(0, 0.5, 11))
        assert np.max(np.abs(path.eta - path.eta[0])) <= 1e-10
        assert np.max(np.abs(path.etadot)) <= 1e-10

    def test_lost_zero_on_coarse_grid(self):
        with pytest.raises(LostZero):
            track_tau_zero(U1, 50.0 * V1, Z1, B_I, np.linspace(0, 0.5, 6))

    def test_guard_failed_when_unit_shift_is_period(self):
        # U = 1: every x-translate of a zero by 1 is again a zero
        with pytest.raises(GuardFailed):
            track_tau_zero(np.array([1.0 + 0j]), V1, Z1, B_I,
                           np.linspace(0, 0.1, 5))

    def test_laurent_data_is_one_pass(self, tracked, lattice_passes):
        # x, the guards x +- 1 and the 5-point circle: one 8-point pass
        tau_abs, etadot, v0 = dynamics._laurent_data(
            ThetaTau(U1, V1, Z1, B_I), tracked.eta[3], GRID[3])
        assert lattice_passes == [(8, False)]
        assert (tau_abs, etadot, v0) == (tracked.tau_abs[3], tracked.etadot[3],
                                         tracked.v0[3])

    def test_csv(self, tracked, tmp_path):
        path = tmp_path / "zp.csv"
        tracked.to_csv(path)
        header = open(path).readline().strip().split(",")
        assert header == ["t", "re_eta", "im_eta", "re_v0", "im_v0"]


class TestCm5:
    def test_jacobian_data(self, tracked):
        assert cm5_residual(tracked, U1, V1, Z1, B_I) <= 1e-6

    def test_static_zero_trivial(self):
        path = track_tau_zero(U1, np.zeros(1, complex), Z1, B_I,
                              np.linspace(0, 0.5, 11))
        assert cm5_residual(path, U1, np.zeros(1, complex), Z1, B_I) <= 1e-10

    def test_perturbed_tau_control(self, tracked):
        base = ThetaTau(U1, V1, Z1, B_I)
        pert = PerturbedTau(base, 0.05, x_ref=tracked.eta[0] + 0.5)
        path = track_zero(pert, GRID, x0=tracked.eta[0])
        assert cm5_residual(path, U1, V1, Z1, B_I, tau=pert) >= 1e-2

    def test_zero_step_grid_rejected(self):
        # a constant grid tracks fine, but its central differences are 0/0
        path = track_tau_zero(U1, V1, Z1, B_I, [0.1] * 5)
        with pytest.raises(ValidationError, match="nonzero grid step"):
            cm5_residual(path, U1, V1, Z1, B_I)

    def test_one_pass(self, tracked, lattice_passes):
        # the guards at eta +- 1 and v there share one pass over the inner points
        cm5_residual(tracked, U1, V1, Z1, B_I)
        assert lattice_passes == [(2 * (len(GRID) - 4), False)]

    def test_nonuniform_grid_rejected(self, tracked):
        bad = tracked
        with pytest.raises(ValidationError):
            cm5_residual(
                track_tau_zero(U1, V1, Z1, B_I, np.array([0, 0.1, 0.15, 0.3, 0.5])),
                U1, V1, Z1, B_I)


KERNELS = [RationalKernel(), TrigKernel(2.0), EllipticKernel(1.1j, omega1=2.5)]


class TestKernels:
    def test_oddness_everywhere(self):
        rng = Xoshiro256(77)
        for kernel in KERNELS:
            q = np.array([complex(rng.uniform_in(-1.4, 1.4), rng.uniform_in(-1.0, 1.0))
                          for _ in range(34)])
            F, clear = kernel.evaluate(q)
            Fm, _ = kernel.evaluate(-q)
            assert clear.sum() >= 30
            s = (F + Fm)[clear]
            assert np.all(np.abs(s) <= 1e-12 * (1 + np.abs(F[clear])))

    def test_trig_period_one_rejected(self):
        with pytest.raises(ValidationError):
            TrigKernel(1.0)

    def test_elliptic_vanishes_at_half_period(self):
        """The zeta-difference kernel is flat around half periods."""
        omega1 = 2.0 / (0.35 + 0.02j)
        ker = EllipticKernel(0.5j, omega1=omega1)
        half = 0.5 * omega1
        assert abs(ker.F(half)) <= 1e-9 * (1 + abs(ker.F(half + 0.3)))

    def test_elliptic_evaluate_is_one_pass(self, lattice_passes):
        # F and the guard of k separations come from one pass of 3k points
        ker = EllipticKernel(1.1j, omega1=2.5)
        F, clear = ker.evaluate(np.array([0.7 - 0.2j, -0.3 + 0.4j, 1.1 + 0.1j,
                                          0.2 - 0.6j]))
        assert lattice_passes == [(12, False)]
        assert F.shape == clear.shape == (4,) and clear.all()

    def test_elliptic_stage_is_one_pass(self, lattice_passes):
        # _accel hands all N(N-1) separations of an RK4 stage to the kernel
        ker = EllipticKernel(1.1j, omega1=2.5)
        x = np.array([0.2 + 0.1j, 0.9 - 0.2j, -0.5 + 0.3j])
        v = np.array([0.4, -0.3 + 0.1j, 0.1j])
        a = dynamics._accel(ker, x, v)
        assert lattice_passes == [(18, False)]
        # a_i = v_i sum_j v_j F(x_i - x_j), each F bitwise its one-point value
        i, j = np.array([(i, j) for i in range(3) for j in range(3) if j != i]).T
        F = np.array([ker.F(q) for q in x[i] - x[j]])
        assert np.array_equal(a, v * (v[j] * F).reshape(3, 2).sum(axis=1))

    def test_elliptic_F_matches_per_point_log_derivative(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        unit = np.array([1.0 + 0j])

        def L(u):
            # value and derivative share a logscale, which cancels
            sums = theta_jets(np.array([[u / ker.omega1]]), ker.B, dirs=(unit,),
                              char=ker.char, tol=ker.tol).sums
            return sums["d0"][0] / sums["f"][0] / ker.omega1

        rng = Xoshiro256(5)
        for _ in range(20):
            q = np.complex128(complex(rng.uniform_in(-1.2, 1.2),
                                      rng.uniform_in(-1.0, 1.0)))
            assert ker.F(q) == 2.0 * L(q) - L(q + 1.0) - L(q - 1.0)

    def test_elliptic_guard_fresh_after_other_separation(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        ker.F(0.6 + 0.1j)
        assert not ker.guard(1e-10 + 0j)
        st = RSState(x=np.array([0.2 + 0.1j, 0.2 + 0.1j + 1e-10]),
                     xdot=np.array([0.1, -0.1]), kernel=ker)
        with pytest.raises(Collision):
            rs_integrate(st, 0.01, 1e-3)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_zero_separation_is_collision_without_warning(self, kernel):
        st = RSState(x=np.array([0.3 + 0.1j, 0.3 + 0.1j, -1.6 + 0.2j]),
                     xdot=np.array([0.1, -0.1, 0.2j]), kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Collision, match="particles 0 and 1 at separation 0"):
                rs_integrate(st, 0.01, 1e-3)

    def test_kernel_specs(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        assert dynamics.make_kernel(ker) is ker
        assert isinstance(dynamics.make_kernel("rational"), RationalKernel)
        assert dynamics.make_kernel(("trig", 3.0)).L == 3.0
        for spec in ("elliptic", (), ("bessel",), 3):
            with pytest.raises(ValidationError):
                dynamics.make_kernel(spec)


class TestRS:
    def test_free_particle_linear(self):
        st = RSState(x=np.array([0.2 + 0.1j]), xdot=np.array([0.7 - 0.2j]))
        tr = rs_integrate(st, 1.0, 1e-3)
        assert abs(tr.x[-1, 0] - (st.x[0] + st.xdot[0])) <= 1e-12

    def test_free_particle_elliptic(self):
        # one particle has no separations: the elliptic stage is empty
        st = RSState(x=np.array([0.2 + 0.1j]), xdot=np.array([0.7 - 0.2j]),
                     kernel=EllipticKernel(1.1j, omega1=2.5))
        tr = rs_integrate(st, 0.1, 1e-3)
        assert abs(tr.x[-1, 0] - (st.x[0] + 0.1 * st.xdot[0])) <= 1e-12

    def test_three_body_momentum(self):
        st = RSState(x=np.array([0.0, 1.7 + 0.4j, -1.5 + 0.9j]),
                     xdot=np.array([0.3, 0.2 - 0.1j, -0.25 + 0.05j]))
        tr = rs_integrate(st, 1.0, 1e-3)
        drift = max(abs(tr.xdot[k].sum() - tr.xdot[0].sum())
                    for k in range(len(tr.t)))
        assert drift <= 1e-9

    def test_elliptic_momentum(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        st = RSState(x=np.array([0.2 + 0.1j, 0.9 - 0.2j]),
                     xdot=np.array([0.4 + 0j, -0.3 + 0.1j]), kernel=ker)
        tr = rs_integrate(st, 1.0, 2e-3)
        drift = max(abs(tr.xdot[k].sum() - tr.xdot[0].sum())
                    for k in range(len(tr.t)))
        assert drift <= 1e-8

    def test_no_particles_rejected(self):
        with pytest.raises(ValidationError):
            RSState(x=np.array([], complex), xdot=np.array([], complex))

    def test_collision_guard(self):
        st = RSState(x=np.array([0.0, 1.0 + 1e-8j]),
                     xdot=np.array([0.1, -0.1]))
        with pytest.raises(Collision):
            rs_integrate(st, 0.1, 1e-3)

    def test_crosscheck_against_tracking(self):
        dev, paths, traj = elliptic_zero_crosscheck(
            1j, 0.35 + 0.02j, 0.21 - 0.05j, 0.12 + 0.28j,
            t_end=0.4, h=2e-3, samples=21)
        assert dev <= 1e-5
        # the two tracked zeros genuinely differ by the full x-period
        omega1 = 1.0 / (0.35 + 0.02j)
        assert abs((paths[1].eta[0] - paths[0].eta[0]) - omega1) <= 1e-9

    def test_trajectory_csv(self, tmp_path):
        st = RSState(x=np.array([0.0 + 0j]), xdot=np.array([0.5 + 0j]))
        tr = rs_integrate(st, 0.01, 1e-3)
        p = tmp_path / "tr.csv"
        tr.to_csv(p)
        assert open(p).readline().strip() == "t,i,re_x,im_x,re_xdot,im_xdot"


class TestF2d:
    def test_genus1_sweep(self):
        tau = DiscreteTau(np.array([0.35 + 0.05j]), np.array([0.21 - 0.13j]),
                          np.array([0.12 + 0.33j]), B_I)
        guess = None
        worst = 0.0
        for k in range(5):
            nu = 0.25 * k
            guess = find_tau_zero(tau, nu, guess)
            worst = max(worst, f2d_residual(
                np.array([0.35 + 0.05j]), np.array([0.21 - 0.13j]),
                np.array([0.12 + 0.33j]), B_I, nu, x_guess=guess))
        assert worst <= 1e-8

    def test_genus2(self, x5m1, fay_data):
        Z = np.array([0.15 + 0.2j, -0.1 + 0.1j])
        r = f2d_residual(fay_data["U"], fay_data["V"], Z, x5m1.B, nu=0.0)
        assert r <= 1e-7

    def test_perturbed_control(self):
        Uc = np.array([0.35 + 0.05j])
        Vc = np.array([0.21 - 0.13j])
        Zc = np.array([0.12 + 0.33j])
        tau = DiscreteTau(Uc, Vc, Zc, B_I)
        eta0 = find_tau_zero(tau, 0.0)
        pert = PerturbedTau(tau, 0.05, x_ref=eta0 + 0.5, mode="oscillatory")
        assert f2d_residual(Uc, Vc, Zc, B_I, 0.0, tau=pert) >= 1e-2


B2 = PeriodMatrix([[1.1j, 0.2 + 0.3j], [0.2 + 0.3j, 0.9j]])


def _section(name):
    theta = ThetaTau(U1, V1, Z1, B_I)
    discrete = DiscreteTau(np.array([0.35 + 0.05j]), np.array([0.21 - 0.13j]),
                           np.array([0.12 + 0.33j]), B_I)
    return {
        "theta": theta,
        "theta-genus2": ThetaTau([0.3 + 0.1j, -0.2 + 0.05j], [0.1 - 0.2j, 0.25j],
                                 [0.1 + 0.2j, -0.3 + 0.1j], B2),
        "discrete": discrete,
        "perturbed-const": PerturbedTau(theta, 0.05, x_ref=0.3 + 0.1j),
        "perturbed-oscillatory": PerturbedTau(discrete, 0.05, x_ref=0.3 + 0.1j,
                                              mode="oscillatory"),
    }[name]


class TestSections:
    @pytest.mark.parametrize("name", ["theta", "theta-genus2", "discrete",
                                      "perturbed-const", "perturbed-oscillatory"])
    def test_rows_are_bitwise_one_point_values(self, name):
        tau = _section(name)
        rng = Xoshiro256(11)
        for P in range(2, 9):
            xs = np.array([rng.complex_normal() for _ in range(P)])
            ts = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(P)])
            many = tau.jets(xs, ts)
            for p in range(P):
                for a, b in zip(many, tau.jets(xs[p:p + 1], ts[p])):
                    assert (a is None and b is None
                            or a[p:p + 1].tobytes() == b.tobytes())

    @pytest.mark.parametrize("mode", ["const", "oscillatory"])
    def test_perturbed_jets_add_the_term_to_the_base_pass(self, mode):
        base = ThetaTau(U1, V1, Z1, B_I)
        x_ref = 0.3 + 0.1j
        pert = PerturbedTau(base, 0.05, x_ref=x_ref, mode=mode)
        rng = Xoshiro256(12)
        xs = np.array([rng.complex_normal() for _ in range(6)])
        ts = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(6)])
        f, fx, ft, g = pert.jets(xs, ts)
        assert np.array_equal(g, base.jets(xs, ts)[3])
        for p, (x, t) in enumerate(zip(xs, ts)):
            # eps exp(g(x_ref)) (times e^{i pi x}) on theta's own scale
            z = x * U1 + t * V1 + Z1
            jet = theta_jet(z, B_I, dirs=(U1, V1))
            term = 0.05 * np.exp(gauss_exponent(B_I, x_ref * U1 + Z1))
            dterm = 0.0
            if mode == "oscillatory":
                term *= np.exp(1j * np.pi * x)
                dterm = 1j * np.pi * term
            unit = np.exp(g[p])
            for got, want in ((f[p], jet["f"].to_complex() + term),
                              (fx[p], jet["d0"].to_complex() + dterm),
                              (ft[p], jet["d1"].to_complex())):
                assert abs(got * unit - want) <= 1e-14 * (abs(want) + abs(term))
