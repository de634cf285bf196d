"""Mutation matrix: each row runs one scenario in-process under a named
defect of the code it checks, patched in by the test, and names the checks
that must fail.  A check that no defect can make fail is structural:
STRUCTURAL gives its reason, and every row leaves it bitwise unchanged."""

import numpy as np
import pytest

from theta_secant.cli import run_scenario
from theta_secant.dynamics import EllipticKernel
from theta_secant.reports import ScenarioConfig

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

        def mutated(self, q):
            F, dist = evaluate(self, q)
            return wrong(F), dist
        monkeypatch.setattr(EllipticKernel, "evaluate", mutated)
    return patch


# (scenario, seed, defect, the checks that must fail)
ROWS = [
    ("rs-dynamics", 7, _elliptic_force(lambda F: 1.05 * F), set()),
    ("rs-dynamics", 7, _elliptic_force(np.zeros_like), set()),
]


@pytest.mark.parametrize("scenario, seed, patch, must_fail", ROWS,
                         ids=["elliptic-F-times-1.05", "elliptic-F-zero"])
def test_mutation_fails_its_checks(monkeypatch, scenario, seed, patch, must_fail):
    clean = run_scenario(ScenarioConfig(scenario, seed=seed)).checks
    kernel = EllipticKernel(1.1j, omega1=2.5)
    F_clean = kernel.F(0.3 + 0.1j)
    patch(monkeypatch)
    assert kernel.F(0.3 + 0.1j) != F_clean        # the defect is live
    mutated = run_scenario(ScenarioConfig(scenario, seed=seed)).checks
    assert {c.name for c in mutated if not c.passed} == must_fail
    for before, after in zip(clean, mutated):
        if before.name in STRUCTURAL:
            assert after.residual == before.residual
