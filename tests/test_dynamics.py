"""Zero tracking, the second-order zero law, and particle dynamics."""

import warnings

import mpmath
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
    ZeroPath,
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
from theta_secant.scenarios import RS_KERNELS
from theta_secant.series import discrete_residue_consistency
from theta_secant.theta import PeriodMatrix, theta_jets
from theta_values import gauss_exponent, jet_at

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
        # the oscillatory term bends the path at the grid scale, so the
        # velocity prediction misses it and Newton lands on another zero
        coarse = np.linspace(0, 0.5, 6)
        eta0 = track_tau_zero(U1, 50.0 * V1, Z1, B_I, coarse).eta[0]
        for eps in (0.2, 0.5, 1.0):
            pert = PerturbedTau(ThetaTau(U1, 50.0 * V1, Z1, B_I), eps,
                                x_ref=eta0 + 0.5, mode="oscillatory")
            with pytest.raises(LostZero):
                track_zero(pert, coarse, x0=eta0)

    def test_affine_zero_tracked_on_coarse_grid(self):
        # a genus-1 zero moves affinely, with velocity -V/U, so the predictor
        # follows it on a grid far too coarse for warm-started Newton
        coarse = np.linspace(0, 0.5, 6)
        path = track_tau_zero(U1, 50.0 * V1, Z1, B_I, coarse)
        assert path.tau_abs.max() <= 1e-11
        line = path.eta[0] - 50.0 * V1[0] / U1[0] * coarse
        assert np.max(np.abs(path.eta - line)) <= 1e-11
        fit = np.polyfit(coarse, path.eta, 1)
        assert np.max(np.abs(np.polyval(fit, coarse) - path.eta)) <= 1e-11

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_one_step_and_one_stencil_pass_per_point(self, tracked, perturbed,
                                                     lattice_passes):
        # the first point's Newton runs on 8-point Laurent passes (one when
        # the start is already the zero, five from the unperturbed zero for
        # the perturbed section); after it: the corrector step from the
        # prediction, then the Laurent pass that shows the zero converged
        tau = ThetaTau(U1, V1, Z1, B_I)
        if perturbed:
            tau = PerturbedTau(tau, 0.05, x_ref=tracked.eta[0] + 0.5)
        track_zero(tau, GRID[:6], x0=tracked.eta[0])
        first = [(8, False)] * (5 if perturbed else 1)
        assert lattice_passes == first + [(1, False), (8, False)] * 5

    def test_guard_failed_when_unit_shift_is_period(self):
        # U = 1: every x-translate of a zero by 1 is again a zero
        with pytest.raises(GuardFailed):
            track_tau_zero(np.array([1.0 + 0j]), V1, Z1, B_I,
                           np.linspace(0, 0.1, 5))

    @pytest.mark.parametrize("grid", [[0.1] * 5, [0.0, 0.1, 0.1, 0.2],
                                      [0.0, np.nan, 0.2], [0.0, 0.1, np.inf]])
    def test_zero_step_or_non_finite_grid_rejected(self, grid):
        # a zero step would repeat one point; a NaN would surface as LostZero
        with pytest.raises(ValidationError, match="finite values and nonzero steps"):
            track_tau_zero(U1, V1, Z1, B_I, grid)

    def test_laurent_data_is_one_pass(self, tracked, lattice_passes):
        # x, the guards x +- 1 and the 5-point circle: one 8-point pass
        x, t = tracked.eta[3], GRID[3]
        tau_abs, etadot, v0, v_side = dynamics._laurent_data(
            x, t, dynamics._stencil(ThetaTau(U1, V1, Z1, B_I), x, t))
        assert lattice_passes == [(8, False)]
        assert (tau_abs, etadot, v0) == (tracked.tau_abs[3], tracked.etadot[3],
                                         tracked.v0[3])
        assert np.array_equal(v_side, tracked.v_side[3])

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_v_side_is_v_at_the_shifted_zeros(self, tracked, perturbed):
        """v_side is bitwise -tau_t / tau at eta + 1 and eta - 1 from one
        pass over the whole path with array t."""
        tau = ThetaTau(U1, V1, Z1, B_I)
        path = tracked
        if perturbed:
            tau = PerturbedTau(tau, 0.05, x_ref=tracked.eta[0] + 0.5)
            path = track_zero(tau, GRID, x0=tracked.eta[0])
        xs = np.stack([path.eta + 1.0, path.eta - 1.0], axis=-1).ravel()
        f, _, ft, _ = tau.jets(xs, np.repeat(GRID, 2))
        assert path.v_side.shape == (len(GRID), 2)
        assert np.array_equal(path.v_side, (-ft / f).reshape(-1, 2))

    def test_csv(self, tracked):
        header, *rows = tracked.csv_rows()
        assert header == ["t", "re_eta", "im_eta", "re_v0", "im_v0"]
        assert len(rows) == len(tracked.t)


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

    def test_zero_step_grid_rejected(self, tracked):
        # track_zero rejects a constant grid, but a ZeroPath can be built
        # directly, and its central differences would be 0/0
        path = ZeroPath(np.full(5, 0.1), np.full(5, tracked.eta[0]), tracked.etadot[:5],
                        tracked.v0[:5], tracked.tau_abs[:5], tracked.v_side[:5])
        with pytest.raises(ValidationError, match="nonzero grid step"):
            cm5_residual(path, U1, V1, Z1, B_I)

    def test_one_pass(self, tracked, lattice_passes):
        # v at eta +- 1 comes from the tracking passes, which guarded it:
        # the residual makes no pass of its own
        cm5_residual(tracked, U1, V1, Z1, B_I)
        assert lattice_passes == []

    def test_nonuniform_grid_rejected(self, tracked):
        bad = tracked
        with pytest.raises(ValidationError):
            cm5_residual(
                track_tau_zero(U1, V1, Z1, B_I, np.array([0, 0.1, 0.15, 0.3, 0.5])),
                U1, V1, Z1, B_I)


KERNELS = [RationalKernel(), TrigKernel(2.0), EllipticKernel(1.1j, omega1=2.5)]
KERNEL_IDS = ["rational", "trigonometric", "elliptic"]


def _accel(F, x, v):
    """a_i = v_i sum_{j != i} v_j F(x_i - x_j), summed in increasing j, with
    F(x_i - x_j) = -F(x_j - x_i) for i > j: the order of the integrator."""
    a = []
    for i in range(len(x)):
        s = 0j
        for j in range(len(x)):
            if j != i:
                s += v[j] * (F(x[i] - x[j]) if i < j else -F(x[j] - x[i]))
        a.append(v[i] * s)
    return a


class TestKernels:
    def test_oddness_everywhere(self):
        # F(-q) = -F(q), so a stage takes -F for pair (j, i); q and -q are
        # clear of the poles together
        rng = Xoshiro256(77)
        for kernel in KERNELS:
            qs = [complex(rng.uniform_in(-1.4, 1.4), rng.uniform_in(-1.0, 1.0))
                  for _ in range(34)]
            clear = 0
            for q in qs:
                F, Fm = kernel.forces([q]), kernel.forces([-q])
                assert isinstance(F, list) == isinstance(Fm, list)
                if isinstance(F, list):
                    clear += 1
                    assert abs(F[0] + Fm[0]) <= 1e-12 * (1 + abs(F[0]))
            assert clear >= 30

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_forces_are_the_one_point_values_or_the_first_pole(self, kernel):
        rng = Xoshiro256(78)
        qs = [complex(rng.uniform_in(-1.4, 1.4), rng.uniform_in(-1.0, 1.0))
              for _ in range(6)]
        F = kernel.forces(qs)
        assert F == [kernel.forces([q])[0] for q in qs]
        # a pole, a separation that is not finite: the first one is named
        for bad in (1.0 + 0j, complex(np.nan, 0.0), complex(0.0, np.inf)):
            assert kernel.forces(qs[:2] + [bad] + qs[2:] + [0j]) == 2
        assert kernel.forces([]) == []

    def test_trig_period_one_rejected(self):
        with pytest.raises(ValidationError):
            TrigKernel(1.0)

    @pytest.mark.parametrize("period", [np.nan, np.inf])
    def test_trig_period_non_finite_rejected(self, period):
        with pytest.raises(ValidationError, match="finite"):
            TrigKernel(period)

    @pytest.mark.parametrize("omega1", [0.0, np.nan])
    def test_elliptic_omega1_zero_or_non_finite_rejected(self, omega1):
        with pytest.raises(ValidationError, match="finite nonzero omega1"):
            EllipticKernel(1j, omega1=omega1)

    def test_elliptic_tau_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite entries"):
            EllipticKernel(complex(np.nan, 1.0), omega1=1.0)

    def test_elliptic_omega1_required(self):
        # with omega1 = 1 the lattice Z + tau Z has period 1, and
        # F(q) = 2 L(q) - L(q+1) - L(q-1) vanishes identically
        with pytest.raises(TypeError, match="omega1"):
            EllipticKernel(1j)

    @pytest.mark.parametrize("omega1", [0.5, 1 / (1 + 1j), 1.0])
    def test_elliptic_omega1_with_lattice_reciprocal_rejected(self, omega1):
        # at tau = i, 1/omega1 = 2, 1 + i and 1 lie in Z + tau Z, where F
        # reads at most 4e-15 at q = 0.3 + 0.1i and 0.7 - 0.4i
        with pytest.raises(ValidationError, match="off the lattice"):
            EllipticKernel(1j, omega1=omega1)

    def test_scenario_elliptic_kernels_build(self):
        # rs-dynamics and rs simulate: tau = 1.1i, omega1 = 2.5; the
        # crosscheck of rs-dynamics: tau = i / 2, omega1 = 2 / U
        _, tau, omega1 = RS_KERNELS["elliptic"]
        for ker in (EllipticKernel(tau, omega1=omega1),
                    EllipticKernel(0.5j, omega1=2.0 / (0.35 + 0.02j))):
            assert min(abs(ker.F(q)) for q in (0.3 + 0.1j, 0.7 - 0.4j)) > 1.0

    def test_elliptic_vanishes_at_half_period(self):
        """The zeta-difference kernel is flat around half periods."""
        omega1 = 2.0 / (0.35 + 0.02j)
        ker = EllipticKernel(0.5j, omega1=omega1)
        half = 0.5 * omega1
        assert abs(ker.F(half)) <= 1e-9 * (1 + abs(ker.F(half + 0.3)))

    def test_elliptic_evaluate_is_one_pass(self, lattice_passes):
        # F and dist of k separations come from one pass of 3k points
        ker = EllipticKernel(1.1j, omega1=2.5)
        F, dist = ker.evaluate(np.array([0.7 - 0.2j, -0.3 + 0.4j, 1.1 + 0.1j,
                                         0.2 - 0.6j]))
        assert lattice_passes == [(12, False)]
        # dist holds the rows q, q + 1 and q - 1
        assert F.shape == (4,) and dist.shape == (3, 4)
        assert dist.min() > ker.clearance

    def test_elliptic_stage_is_one_pass(self, lattice_passes):
        # a stage hands the N(N-1)/2 separations x_i - x_j, i < j, to the
        # kernel: 3 separations, one pass of 9 points
        ker = EllipticKernel(1.1j, omega1=2.5)
        x = [0.2 + 0.1j, 0.9 - 0.2j, -0.5 + 0.3j]
        v = [0.4 + 0j, -0.3 + 0.1j, 0.1j]
        slope = dynamics._slope(ker, x + v)
        assert lattice_passes == [(9, False)]
        # each F bitwise its one-point value
        assert slope == v + _accel(lambda q: ker.F(q), x, v)

    def test_elliptic_F_matches_per_point_log_derivative(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        unit = np.array([1.0 + 0j])
        half = 0.5 * (1.0 + ker.tau)

        def L(u):
            # theta1'/theta1 less its constant pi i, from the plain theta at
            # the shifted point; value and derivative share a logscale
            sums = theta_jets(np.array([[u / ker.omega1 + half]]), ker.B,
                              dirs=(unit,)).sums
            return sums["d0"][0] / sums["f"][0] / ker.omega1

        rng = Xoshiro256(5)
        for _ in range(20):
            q = np.complex128(complex(rng.uniform_in(-1.2, 1.2),
                                      rng.uniform_in(-1.0, 1.0)))
            assert ker.F(q) == 2.0 * L(q) - L(q + 1.0) - L(q - 1.0)

    @pytest.mark.parametrize("tau, omega1", [(1.1j, 2.5), (0.35 + 0.8j, 1.3 - 0.4j)])
    def test_elliptic_evaluate_against_mpmath(self, tau, omega1):
        """F against 2 L(q) - L(q+1) - L(q-1) with L(u) = pi theta1'/theta1
        (pi u / omega1) / omega1 from mpmath.jtheta at 30 digits, and dist
        against the normalized modulus of theta1 at q / omega1."""
        ker = EllipticKernel(tau, omega1=omega1)
        rng = Xoshiro256(17)
        q = np.array([complex(rng.uniform_in(-1.2, 1.2), rng.uniform_in(-0.8, 0.8))
                      for _ in range(20)])
        F, dist = ker.evaluate(q)
        with mpmath.workdps(30):
            nome = mpmath.exp(1j * mpmath.pi * tau)

            def L(u):
                w = mpmath.pi * mpmath.mpc(u) / omega1
                return mpmath.pi * (mpmath.jtheta(1, w, nome, 1)
                                    / mpmath.jtheta(1, w, nome)) / omega1

            for k, qk in enumerate(q):
                parts = [2 * L(qk), L(qk + 1.0), L(qk - 1.0)]
                want = complex(parts[0] - parts[1] - parts[2])
                assert abs(F[k] - want) <= 1e-12 * sum(abs(complex(v)) for v in parts)
                z = qk / omega1
                hat = float(abs(mpmath.jtheta(1, mpmath.pi * mpmath.mpc(z), nome))
                            * mpmath.exp(-mpmath.pi * z.imag ** 2 / tau.imag))
                assert dist[0, k] == pytest.approx(hat, rel=1e-12)

    def test_elliptic_dist_past_float_range_is_not_clear(self):
        """Far out, the exponent of the normalized modulus of theta1 (which
        is bounded) passes exp's range: dist is nan, not inf, and the
        separation is not clear, without an overflow warning."""
        ker = EllipticKernel(1.1j, omega1=2.5)
        far = 1.481e10 + 7.145e9j
        assert np.isnan(ker.evaluate(np.array([far]))[1]).all()
        assert ker.forces([0.6 + 0.1j, far]) == 1 and not ker.guard(far)

    def test_elliptic_guard_fresh_after_other_separation(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        ker.F(0.6 + 0.1j)
        assert not ker.guard(1e-10 + 0j)
        st = RSState(x=np.array([0.2 + 0.1j, 0.2 + 0.1j + 1e-10]),
                     xdot=np.array([0.1, -0.1]), kernel=ker)
        with pytest.raises(Collision):
            rs_integrate(st, 0.01, 1e-3)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_zero_separation_is_collision_without_warning(self, kernel):
        st = RSState(x=np.array([0.3 + 0.1j, 0.3 + 0.1j, -1.6 + 0.2j]),
                     xdot=np.array([0.1, -0.1, 0.2j]), kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Collision, match="particles 0 and 1 at separation 0"):
                rs_integrate(st, 0.01, 1e-3)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_collision_names_the_first_pair(self, kernel):
        # particles 1 and 2 of three collide; the separations of 0 and 1 and
        # of 0 and 2 are clear
        st = RSState(x=np.array([-1.6 + 0.2j, 0.3 + 0.1j, 0.3 + 0.1j]),
                     xdot=np.array([0.2j, 0.1, -0.1]), kernel=kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Collision, match="particles 1 and 2 at separation 0"):
                rs_integrate(st, 0.01, 1e-3)

    @pytest.mark.parametrize("spec, pole, spacing", [
        ("rational", 0.0, 1.0),
        (("trig", 2.0), 0.0, 1.0),
        (("trig", 0.3), 0.9, 0.1),
        (("elliptic", 1.1j, 2.5), 1.0, 0.5),
    ])
    def test_spacing_is_the_least_distance_between_poles(self, spec, pole, spacing):
        kernel = dynamics.make_kernel(spec)
        assert kernel.spacing == pytest.approx(spacing, rel=1e-12)
        assert kernel.forces([pole]) == 0
        assert kernel.forces([pole + kernel.spacing]) == 0

    def test_kernel_specs(self):
        ker = EllipticKernel(1.1j, omega1=2.5)
        assert dynamics.make_kernel(ker) is ker
        assert isinstance(dynamics.make_kernel("rational"), RationalKernel)
        assert dynamics.make_kernel(("trig", 3.0)).L == 3.0
        # one spelling per kernel: "trigonometric" is not a spec name
        for spec in ("elliptic", (), ("bessel",), 3, ("trigonometric", 3.0)):
            with pytest.raises(ValidationError):
                dynamics.make_kernel(spec)


class TestRS:
    def test_free_particle_linear(self):
        st = RSState(x=np.array([0.2 + 0.1j]), xdot=np.array([0.7 - 0.2j]))
        tr = rs_integrate(st, 1.0, 1e-3)
        assert abs(tr.x[-1, 0] - (st.x[0] + st.xdot[0])) <= 1e-12

    def test_free_particle_elliptic(self, lattice_passes):
        # one particle has no separations: the elliptic stage is empty and
        # makes no lattice pass
        st = RSState(x=np.array([0.2 + 0.1j]), xdot=np.array([0.7 - 0.2j]),
                     kernel=EllipticKernel(1.1j, omega1=2.5))
        tr = rs_integrate(st, 0.1, 1e-3)
        assert abs(tr.x[-1, 0] - (st.x[0] + 0.1 * st.xdot[0])) <= 1e-12
        assert lattice_passes == []

    def test_free_particle_trig(self):
        st = RSState(x=np.array([0.2 + 0.1j]), xdot=np.array([0.7 - 0.2j]),
                     kernel=TrigKernel(2.0))
        tr = rs_integrate(st, 0.1, 1e-3)
        assert abs(tr.x[-1, 0] - (st.x[0] + 0.1 * st.xdot[0])) <= 1e-12

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_step_is_textbook_rk4(self, kernel):
        x = [0.2 + 0.1j, 0.9 - 0.2j, -0.5 + 0.3j]
        v = [0.4 + 0j, -0.3 + 0.1j, 0.1j]
        h = 1e-3
        tr = rs_integrate(RSState(x=x, xdot=v, kernel=kernel), h, h)
        a = lambda x, v: _accel(lambda q: kernel.forces([q])[0], x, v)

        def axpy(y, c, k):
            return [p + c * r for p, r in zip(y, k)]

        def rk4(y, k1, k2, k3, k4):
            return [p + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
                    for p, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4)]

        k1x, k1v = v, a(x, v)
        k2x, k2v = axpy(v, 0.5 * h, k1v), a(axpy(x, 0.5 * h, k1x), axpy(v, 0.5 * h, k1v))
        k3x, k3v = axpy(v, 0.5 * h, k2v), a(axpy(x, 0.5 * h, k2x), axpy(v, 0.5 * h, k2v))
        k4x, k4v = axpy(v, h, k3v), a(axpy(x, h, k3x), axpy(v, h, k3v))
        assert np.array_equal(tr.t, [0.0, h])
        assert np.array_equal(tr.x, [x, rk4(x, k1x, k2x, k3x, k4x)])
        assert np.array_equal(tr.xdot, [v, rk4(v, k1v, k2v, k3v, k4v)])

    @pytest.mark.parametrize("n", [5, 10])
    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_many_body_momentum(self, kernel, n):
        # the positions of rs simulate: 2.2 apart along the real axis
        rng = Xoshiro256(7)
        x = [complex(2.2 * k, 0.0) + 0.3 * rng.complex_normal() for k in range(n)]
        v = [0.5 * rng.complex_normal() for _ in range(n)]
        tr = rs_integrate(RSState(x=x, xdot=v, kernel=kernel), 0.2, 1e-3)
        total = [sum(row) for row in tr.xdot.tolist()]
        assert max(abs(s - total[0]) for s in total) <= 1e-12

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

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    @pytest.mark.parametrize("x, xdot", [([0.1, complex(np.nan, 0.0)], [0.1, 0.2]),
                                         ([0.1, 0.9], [complex(0.0, np.inf), 0.2])])
    def test_non_finite_state_rejected(self, kernel, x, xdot):
        with pytest.raises(ValidationError, match="finite"):
            RSState(x=np.array(x, complex), xdot=np.array(xdot, complex), kernel=kernel)

    def test_trig_far_pair_without_overflow(self):
        # 500i apart, sin(pi q / 2) overflows; the pair is clear and F = 0
        st = RSState(x=np.array([0.0, 500j]), xdot=np.array([0.1, -0.2 + 0.1j]),
                     kernel=TrigKernel(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = rs_integrate(st, 0.1, 1e-3)
        assert np.max(np.abs(tr.xdot - st.xdot)) <= 1e-15

    def test_no_particles_rejected(self):
        with pytest.raises(ValidationError):
            RSState(x=np.array([], complex), xdot=np.array([], complex))

    def test_particle_and_trajectory_bounds(self):
        n = dynamics.MAX_RS_PARTICLES
        RSState(x=np.arange(n, dtype=complex), xdot=np.zeros(n, complex))
        with pytest.raises(ValidationError, match="particles"):
            RSState(x=np.arange(n + 1, dtype=complex), xdot=np.zeros(n + 1, complex))
        st = RSState(x=np.arange(4, dtype=complex), xdot=np.zeros(4, complex))
        steps = dynamics.MAX_RS_POINTS // 4      # steps + 1 rows of 4 are one too many
        with pytest.raises(ValidationError, match="trajectory points"):
            rs_integrate(st, steps * 1e-3, 1e-3)

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

    @pytest.mark.parametrize("t_end,h", [(1.0, 0.6), (1.0, 0.3), (0.1, 3e-3)])
    def test_step_must_divide_t_end(self, t_end, h):
        st = RSState(x=np.array([0.0 + 0j]), xdot=np.array([0.5 + 0j]))
        with pytest.raises(ValidationError, match="does not divide"):
            rs_integrate(st, t_end, h)

    @pytest.mark.parametrize("samples", [27, 24])
    def test_crosscheck_samples_must_fall_on_steps(self, samples):
        # 250 steps: 26 samples fall on every 10th step; 27 or 24 would
        # compare the flow and the zeros at different times
        with pytest.raises(ValidationError, match="must divide"):
            elliptic_zero_crosscheck(1j, 0.35 + 0.02j, 0.21 - 0.05j, 0.12 + 0.28j,
                                     t_end=0.5, h=2e-3, samples=samples)

    def test_trajectory_csv(self):
        st = RSState(x=np.array([0.0 + 0j]), xdot=np.array([0.5 + 0j]))
        header, *rows = rs_integrate(st, 0.01, 1e-3).csv_rows()
        assert header == ["t", "i", "re_x", "im_x", "re_xdot", "im_xdot"]
        assert len(rows) == 11


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

    def test_one_pass_after_the_zero_search(self, lattice_passes):
        # past its zero search, the residual is one pass at the six factors
        U, V, Z = np.array([0.35 + 0.05j]), np.array([0.21 - 0.13j]), np.array([0.12 + 0.33j])
        find_tau_zero(DiscreteTau(U, V, Z, B_I), 0.5)
        search = list(lattice_passes)
        lattice_passes.clear()
        f2d_residual(U, V, Z, B_I, nu=0.5)
        assert lattice_passes == search + [(6, False)]

    @pytest.mark.parametrize("residual", [
        lambda U, V, Z: f2d_residual(U, V, Z, B_I, 0.0),
        lambda U, V, Z: discrete_residue_consistency(U, V, Z, B_I, 0.0, s=0),
        lambda U, V, Z: discrete_residue_consistency(U, V, Z, B_I, 0.0, s=1),
    ], ids=["f2d", "residue-s0", "residue-s1"])
    def test_neighbour_guard(self, residual):
        # U - V = 1: the x-step of 2 is a period, so tau(eta +- 2, nu) is
        # tau(eta, nu) = 0, and both identities stop at the same neighbour
        U, Z = np.array([0.6 + 0.1j]), np.array([0.12 + 0.33j])
        with pytest.raises(GuardFailed) as exc:
            residual(U, U - 1.0, Z)
        assert str(exc.value) == "tau(eta+2, nu+0) too close to zero"


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
            jet = jet_at(z, B_I, dirs=(U1, V1))
            term = 0.05 * np.exp(gauss_exponent(B_I, x_ref * U1 + Z1))
            dterm = 0.0
            if mode == "oscillatory":
                term *= np.exp(1j * np.pi * x)
                dterm = 1j * np.pi * term
            unit = np.exp(g[p])
            for got, want in ((f[p], jet["f"] + term),
                              (fx[p], jet["d0"] + dterm),
                              (ft[p], jet["d1"])):
                assert abs(got * unit - want) <= 1e-14 * (abs(want) + abs(term))
