"""The toda scenario: the semi-discrete secancy fit along the Abel
tangent, and the Toda-type linear problem its constants give on an (x, t)
window."""

from __future__ import annotations

import numpy as np

from ..reports import CheckRecord, Report, ScenarioConfig
from . import _curve_setup, centered, jacobian_fay_data


def run_toda(config: ScenarioConfig) -> Report:
    from ..curves import abel_tangent
    from ..kummer import fit_secancy_semidiscrete
    from ..lattices import (LatticeWindow, find_clear_base_point, refit_constants_toda,
                            toda_fields, toda_psi_residual)
    ident, data, rng = _curve_setup(config)
    B = data.B
    U, V, A, pts = jacobian_fay_data(data, rng)
    Vt = abel_tangent(data, pts[1])
    fit = fit_secancy_semidiscrete(U, Vt, A, B)
    win = LatticeWindow(x_range=centered(config.win("x_size")),
                        t_samples=np.linspace(-0.3, 0.3, config.win("t_size")))
    base = find_clear_base_point(U, Vt, fit.As, B, config.seed + 11, win)
    table = toda_fields(base, fit.p, fit.E)
    res = toda_psi_residual(table)
    ep2, E2 = refit_constants_toda(table)
    ab_gap = max(abs(ep2 - fit.exp_p) / abs(fit.exp_p),
                 abs(E2 - fit.E) / max(abs(fit.E), 1e-300))
    pert_table = toda_fields(base, fit.p, fit.E + 1e-3)
    pert = toda_psi_residual(pert_table)
    checks = [
        CheckRecord.le("fit_residual", fit.residual, config.tol("fit_residual")),
        CheckRecord.le("psi_residual", res, config.tol("psi_residual")),
        CheckRecord.le("ab_consistency", ab_gap, config.tol("ab_consistency")),
        CheckRecord.ge("perturbed_E_control", pert, config.tol("perturbed_E_control")),
    ]
    rep = Report("toda", config.seed, checks, curve=ident, tables=[table])
    rep.extra["calibration_shift"] = fit.calibration_shift
    return rep
