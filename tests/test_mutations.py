"""Mutation matrix: each row runs one scenario in-process under a named
defect of the code it checks, patched in by the test, and names the checks
that must fail.  A check that no defect can make fail is structural:
STRUCTURAL gives its reason, and every row leaves it bitwise unchanged."""

import numpy as np
import pytest

import theta_secant.curves as curves
import theta_secant.divisor as divisor
import theta_secant.dynamics as dynamics
import theta_secant.kummer as kummer
import theta_secant.series as series
import theta_secant.theta as theta
from theta_secant.cli import run_scenario
from theta_secant.dynamics import EllipticKernel
from theta_secant.reports import ScenarioConfig
from theta_secant.theta import PeriodMatrix

STRUCTURAL = {
    # the crosscheck's two particles sit a half period apart, where any
    # odd, doubly periodic F vanishes: it tests that the genus-1 zeros move
    # linearly and that RK4 follows them, not the kernel
    "elliptic_vs_tracking",
}


def _elliptic_force(wrong):
    """Patch the elliptic kernel's F (every pass of EllipticKernel.evaluate)
    into wrong(F), its clearance unchanged."""
    def patch(monkeypatch):
        evaluate = EllipticKernel.evaluate
        kernel = EllipticKernel(1.1j, omega1=2.5)
        F_clean = kernel.F(0.3 + 0.1j)

        def mutated(self, q):
            F, dist = evaluate(self, q)
            return wrong(F), dist
        monkeypatch.setattr(EllipticKernel, "evaluate", mutated)
        assert kernel.F(0.3 + 0.1j) != F_clean        # the defect is live
    return patch


def _perturbed_periods(monkeypatch):
    """Every curve scenario runs on B + 1e-6 M, M a fixed symmetric matrix,
    with the curve's own Abel map."""
    build = curves.build_abel_data
    M = np.array([[0.3, -0.7], [-0.7, 0.5]])

    def mutated(spec):
        data = build(spec)
        data.B = PeriodMatrix(data.B.entries + 1e-6 * M)
        return data
    monkeypatch.setattr(curves, "build_abel_data", mutated)


def _tangent_off_point(monkeypatch):
    """The Abel tangent at P is taken at x + 0.3 on P's sheet."""
    tangent = curves.abel_tangent

    def mutated(data, P):
        return tangent(data, curves.CurvePoint(P.x + 0.3, P.sheet))
    monkeypatch.setattr(curves, "abel_tangent", mutated)


def _moved_samples(monkeypatch):
    """Every divisor sample is moved by 1e-6 in each coordinate, keeping
    the theta_abs of its Newton solve."""
    sample = divisor.sample_theta_divisor

    def mutated(B, seed, count):
        return [s._replace(Z=s.Z + 1e-6) for s in sample(B, seed, count)]
    monkeypatch.setattr(divisor, "sample_theta_divisor", mutated)


def _zero_prefactor_phase(genera):
    """In passes of the given genera, argument reduction returns the
    prefactor exp(2 pi i s) of a point with a lattice shift with the phase
    of s set to 0, its modulus kept."""
    def patch(monkeypatch):
        reduce = theta._reduce

        def mutated(Z, B):
            b, u, pref = reduce(Z, B)
            if pref is not None and B.g in genera:
                pref = (0.0 * pref[0], pref[1])
            return b, u, pref
        monkeypatch.setattr(theta, "_reduce", mutated)
    return patch


def _short_radius(monkeypatch):
    """Every lattice pass sums over the ellipsoid of its radius minus 2,
    and at least 1."""
    ellipsoid = theta._ellipsoid

    def mutated(B, r, binned):
        return ellipsoid(B, max(1, r - 2), binned)
    monkeypatch.setattr(theta, "_ellipsoid", mutated)


def _asymmetric_ellipsoid(monkeypatch):
    """Every lattice pass gives the points of largest first coordinate zero
    weight: the truncated sum is no longer symmetric under n -> -n."""
    ellipsoid = theta._ellipsoid

    def mutated(B, r, binned):
        N, quad, starts = ellipsoid(B, r, binned)
        top = N[0].imag == N[0].imag.max()
        return N, np.where(top, -np.inf + 0j, quad), starts
    monkeypatch.setattr(theta, "_ellipsoid", mutated)


def _fit_reports_other_e_E(monkeypatch):
    """The discrete secancy fit reports e^E 1.001 times the exponential of
    the E it fits."""
    fit = kummer.fit_secancy_discrete

    def mutated(U, V, A, B):
        out = fit(U, V, A, B)
        return out._replace(exp_E=1.001 * out.exp_E)
    monkeypatch.setattr(kummer, "fit_secancy_discrete", mutated)


def _laurent_v0(monkeypatch):
    """The Laurent coefficient v0 of every tracked zero is read 1.001 times
    too large."""
    laurent = dynamics._laurent_data

    def mutated(x, t, stencil):
        tau_abs, etadot, v0, v_side = laurent(x, t, stencil)
        return tau_abs, etadot, 1.001 * v0, v_side
    monkeypatch.setattr(dynamics, "_laurent_data", mutated)


def _laurent_v_side(monkeypatch):
    """The field v at eta + 1 and eta - 1 of every tracked zero is read
    1.001 times too large."""
    laurent = dynamics._laurent_data

    def mutated(x, t, stencil):
        tau_abs, etadot, v0, v_side = laurent(x, t, stencil)
        return tau_abs, etadot, v0, 1.001 * v_side
    monkeypatch.setattr(dynamics, "_laurent_data", mutated)


def _stencil_weights(monkeypatch):
    """The 5-point time-derivative weights of the semi-discrete series are
    1.001 times too large."""
    monkeypatch.setattr(series, "_D5", 1.001 * series._D5)


def _discrete_shift(monkeypatch):
    """The discrete tau function steps nu along 1.01 (U + V)/2."""
    init = dynamics.DiscreteTau.__init__

    def mutated(self, U, V, Z, B):
        init(self, U, V, Z, B)
        self.T = 1.01 * self.T
        self._iT = 1j * self.T
    monkeypatch.setattr(dynamics.DiscreteTau, "__init__", mutated)


def _zero_off(monkeypatch):
    """Every zero of a discrete tau function is returned 1e-6 off."""
    find = dynamics.find_tau_zero

    def mutated(tau, nu, x_guess=None):
        return find(tau, nu, x_guess) + 1e-6
    # series holds its own reference to find_tau_zero
    for module in (dynamics, series):
        monkeypatch.setattr(module, "find_tau_zero", mutated)


# (scenario, seed, defect, the checks that must fail)
ROWS = [
    pytest.param("rs-dynamics", 7, _elliptic_force(lambda F: 1.05 * F), set(),
                 id="elliptic-F-times-1.05"),
    pytest.param("rs-dynamics", 7, _elliptic_force(np.zeros_like), set(),
                 id="elliptic-F-zero"),
    pytest.param("fay-trisecant", 7, _perturbed_periods,
                 {"fit_residual", "fay_collinearity"}, id="B-perturbed-fay-trisecant"),
    pytest.param("toda", 7, _perturbed_periods,
                 {"fit_residual", "psi_residual", "ab_consistency"}, id="B-perturbed-toda"),
    pytest.param("bdhe", 7, _perturbed_periods,
                 {"fit_residual", "psi_residual"}, id="B-perturbed-bdhe"),
    pytest.param("divisor-identities", 7, _perturbed_periods,
                 {"cm7", "cm7d"}, id="B-perturbed-divisor-identities"),
    pytest.param("controls", 7, _perturbed_periods,
                 {"jacobian_fit", "jacobian_identity"}, id="B-perturbed-controls"),
    pytest.param("toda", 7, _tangent_off_point,
                 {"fit_residual", "psi_residual", "ab_consistency"}, id="tangent-off-point-toda"),
    pytest.param("divisor-identities", 7, _tangent_off_point,
                 {"cm7"}, id="tangent-off-point-divisor-identities"),
    pytest.param("divisor-identities", 7, _moved_samples,
                 {"cm7", "cm7d", "divisor_reverify"}, id="samples-moved-divisor-identities"),
    pytest.param("controls", 7, _moved_samples,
                 {"jacobian_identity"}, id="samples-moved-controls"),
    pytest.param("theta-selftest", 7, _zero_prefactor_phase({1, 2}),
                 {"fd_first", "fd_second", "quasi_periodicity"},
                 id="zero-prefactor-phase-theta-selftest"),
    pytest.param("theta-selftest", 7, _short_radius,
                 {"fd_first", "fd_second", "radius_stability"},
                 id="radius-minus-2-theta-selftest"),
    pytest.param("theta-selftest", 7, _asymmetric_ellipsoid,
                 {"evenness", "radius_stability"},
                 id="asymmetric-ellipsoid-theta-selftest"),
    pytest.param("divisor-identities", 7, _zero_prefactor_phase({1}),
                 {"genus1_identity"},
                 id="genus1-zero-prefactor-phase-divisor-identities"),
    pytest.param("bdhe", 7, _fit_reports_other_e_E, {"ab_consistency"},
                 id="fit-e-E-times-1.001-bdhe"),
    pytest.param("rs-dynamics", 7, _laurent_v0, {"cm5"},
                 id="laurent-v0-times-1.001-rs-dynamics"),
    pytest.param("rs-dynamics", 7, _laurent_v_side, {"cm5"},
                 id="laurent-v-side-times-1.001-rs-dynamics"),
    pytest.param("wave-series", 7, _stencil_weights, {"semidiscrete_resubstitution"},
                 id="stencil-weights-times-1.001-wave-series"),
    pytest.param("wave-series", 7, _discrete_shift, {"f2d_genus2"},
                 id="discrete-shift-times-1.01-wave-series"),
    pytest.param("wave-series", 7, _zero_off,
                 {"f2d_genus1", "f2d_genus2", "residue_consistency_s0",
                  "residue_consistency_s1"}, id="zero-off-by-1e-6-wave-series"),
]


@pytest.mark.parametrize("scenario, seed, patch, must_fail", ROWS)
def test_mutation_fails_its_checks(monkeypatch, scenario, seed, patch, must_fail):
    clean = run_scenario(ScenarioConfig(scenario, seed=seed)).checks
    assert all(c.passed for c in clean)
    patch(monkeypatch)
    mutated = run_scenario(ScenarioConfig(scenario, seed=seed)).checks
    assert {c.name for c in mutated if not c.passed} == must_fail
    for before, after in zip(clean, mutated):
        if before.name in STRUCTURAL:
            assert after.residual == before.residual
