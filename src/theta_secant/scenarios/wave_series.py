"""The wave-series scenario: the six-factor identity along zeros of the
discrete tau function (genus 1 and 2), residue consistency, and the
semi-discrete series with its skipped-normalization control."""

from __future__ import annotations

import numpy as np

from .. import cli
from ..reports import CheckRecord, Report, ScenarioConfig
from ..rng import random_z
from ..theta import PeriodMatrix


# frozen genus-1 seed data of the six-factor identity; chosen so that the
# perturbed-tau negative controls discriminate strongly
F2D_SEED = (0.35 + 0.05j, 0.21 - 0.13j, 0.12 + 0.33j)


def run_wave_series(config: ScenarioConfig) -> Report:
    from ..dynamics import DiscreteTau, PerturbedTau, f2d_residual, find_tau_zero
    from ..series import (SemidiscreteSystem, discrete_residue_consistency,
                          new_semidiscrete_table, semidiscrete_cyclic_defect,
                          semidiscrete_resubstitution, semidiscrete_series_extend)
    ident, data, rng = cli._curve_setup(config)
    checks = []
    B1 = PeriodMatrix([[1j]])
    U1 = np.array([F2D_SEED[0]])
    V1 = np.array([F2D_SEED[1]])
    Z1 = np.array([F2D_SEED[2]])
    n_zero = config.win("zeros")
    # genus-1 six-factor identity across a sweep of levels
    worst_g1 = 0.0
    tau1 = DiscreteTau(U1, V1, Z1, B1)
    # the zero at nu = 0 starts the sweep and centres the perturbed control
    eta0 = guess = find_tau_zero(tau1, 0.0)
    for k in range(n_zero):
        nu = 0.25 * k
        if k:
            guess = find_tau_zero(tau1, nu, guess)
        worst_g1 = max(worst_g1, f2d_residual(U1, V1, Z1, B1, nu, x_guess=guess))
    checks.append(CheckRecord.le("f2d_genus1", worst_g1, config.tol("f2d_genus1")))
    # genus-2
    B2 = data.B
    U2, V2, _A2, _pts = cli.jacobian_fay_data(data, rng)
    Z2 = random_z(rng.spawn(3), 2, 0.3)
    tau2 = DiscreteTau(U2, V2, Z2, B2)
    worst_g2 = 0.0
    guess = None
    for k in range(max(2, n_zero // 2)):
        nu = 0.5 * k
        guess = find_tau_zero(tau2, nu, guess)
        worst_g2 = max(worst_g2, f2d_residual(U2, V2, Z2, B2, nu, x_guess=guess))
    checks.append(CheckRecord.le("f2d_genus2", worst_g2, config.tol("f2d_genus2")))
    # perturbed-tau control (oscillatory: constants are nearly tangent to
    # theta-family deformations and barely move the six-factor ratio)
    pert = PerturbedTau(tau1, 0.05, x_ref=eta0 + 0.5, mode="oscillatory")
    rp = f2d_residual(U1, V1, Z1, B1, 0.0, tau=pert)
    checks.append(CheckRecord.ge("f2d_perturbed_control", rp,
                                 config.tol("f2d_perturbed_control")))
    # residue consistency at s = 0, 1
    m0, _, _ = discrete_residue_consistency(U1, V1, Z1, B1, 0.0, 0)
    m1, _, _ = discrete_residue_consistency(U1, V1, Z1, B1, 0.0, 1)
    checks.append(CheckRecord.le("residue_consistency_s0", m0,
                                 config.tol("residue_consistency")))
    checks.append(CheckRecord.le("residue_consistency_s1", m1,
                                 config.tol("residue_consistency")))
    mp, _, _ = discrete_residue_consistency(U1, V1, Z1, B1, 0.0, 0, tau=pert)
    checks.append(CheckRecord.ge("residue_perturbed_control", mp,
                                 config.tol("residue_perturbed_control")))
    # semi-discrete recursion with the periodic normalization
    sysd = SemidiscreteSystem(np.array([0.2 + 0j]), V1, Z1 + 0.1, B1, N=5)
    table = new_semidiscrete_table(t_center=0.1, dt=0.01)
    semidiscrete_series_extend(table, sysd, 0)
    r0 = semidiscrete_resubstitution(table, sysd, 0)
    semidiscrete_series_extend(table, sysd, 1)
    r1 = semidiscrete_resubstitution(table, sysd, 1)
    checks.append(CheckRecord.le("semidiscrete_resubstitution",
                                 max(r0, r1),
                                 config.tol("semidiscrete_resubstitution")))
    t2 = new_semidiscrete_table(t_center=0.1, dt=0.01)
    semidiscrete_series_extend(t2, sysd, 0)
    semidiscrete_series_extend(t2, sysd, 1, skip_normalization=True)
    defect = semidiscrete_cyclic_defect(t2, sysd, 2)
    checks.append(CheckRecord.ge("kp4_skip_defect", defect,
                                 config.tol("kp4_skip_defect")))
    return Report("wave-series", config.seed, checks, curve=ident)
