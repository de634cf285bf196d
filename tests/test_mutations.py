"""Mutation matrix: each row runs one scenario in-process under a named
defect of the code it checks, patched in by the test, and names the checks
that must fail.  A check that no defect can make fail is structural:
STRUCTURAL gives its reason, and every row leaves it bitwise unchanged."""

import importlib

import numpy as np
import pytest

import theta_secant.cli as cli
import theta_secant.curves as curves
import theta_secant.divisor as divisor
from theta_secant.cli import run_scenario
from theta_secant.dynamics import EllipticKernel
from theta_secant.reports import ScenarioConfig
from theta_secant.theta import PeriodMatrix

# the package exports the function theta, which hides the module's name
theta = importlib.import_module("theta_secant.theta")

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
    setup = cli._curve_setup
    M = np.array([[0.3, -0.7], [-0.7, 0.5]])

    def mutated(config):
        ident, data, rng = setup(config)
        data.B = PeriodMatrix(data.B.entries + 1e-6 * M)
        return ident, data, rng
    monkeypatch.setattr(cli, "_curve_setup", mutated)


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


def _zero_prefactor_phase(monkeypatch):
    """Argument reduction returns the prefactor exp(2 pi i s) of a point
    with a lattice shift with the phase of s set to 0, its modulus kept."""
    reduce = theta._reduce

    def mutated(Z, B):
        b, u, pref = reduce(Z, B)
        if pref is not None:
            pref = (0.0 * pref[0], pref[1])
        return b, u, pref
    monkeypatch.setattr(theta, "_reduce", mutated)


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
    pytest.param("theta-selftest", 7, _zero_prefactor_phase,
                 {"fd_first", "fd_second", "quasi_periodicity"},
                 id="zero-prefactor-phase-theta-selftest"),
    pytest.param("theta-selftest", 7, _short_radius,
                 {"fd_first", "fd_second", "radius_stability"},
                 id="radius-minus-2-theta-selftest"),
    pytest.param("theta-selftest", 7, _asymmetric_ellipsoid,
                 {"evenness", "radius_stability"},
                 id="asymmetric-ellipsoid-theta-selftest"),
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
