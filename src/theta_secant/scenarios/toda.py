"""The toda scenario: the semi-discrete secancy fit along the Abel
tangent, and the Toda-type linear problem its constants give on an (x, t)
window."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import cli
from ..reports import CheckRecord, Report, ScenarioConfig


def run_toda(config: ScenarioConfig) -> Report:
    from ..curves import abel_tangent
    from ..kummer import fit_secancy_semidiscrete
    from ..lattices import (LatticeWindow, find_clear_base_point, refit_constants_toda,
                            toda_fields, toda_psi_residual)
    ident, data, rng = cli._curve_setup(config)
    B = data.B
    U, V, A, pts = cli.jacobian_fay_data(data, rng)
    Vt = abel_tangent(data, pts[1])
    fit = fit_secancy_semidiscrete(U, Vt, A, B)
    nx = config.win("x_size")
    nt = config.win("t_size")
    win = LatticeWindow(x_range=(-nx // 2, nx - nx // 2 - 1),
                        t_samples=np.linspace(-0.3, 0.3, nt))
    Z = find_clear_base_point(U, Vt, fit.As, B, config.seed + 11, win)
    table = toda_fields(U, Vt, fit.As, fit.p, fit.E, Z, win, B)
    res = toda_psi_residual(table)
    ep2, E2 = refit_constants_toda(table)
    ab_gap = max(abs(ep2 - fit.exp_p) / abs(fit.exp_p),
                 abs(E2 - fit.E) / max(abs(fit.E), 1e-300))
    pert_table = toda_fields(U, Vt, fit.As, fit.p, fit.E + 1e-3, Z, win, B)
    pert = toda_psi_residual(pert_table)
    checks = [
        CheckRecord.le("fit_residual", fit.residual, config.tol("fit_residual")),
        CheckRecord.le("psi_residual", res, config.tol("psi_residual")),
        CheckRecord.le("ab_consistency", ab_gap, config.tol("ab_consistency")),
        CheckRecord.ge("perturbed_E_control", pert, config.tol("perturbed_E_control")),
    ]
    rep = Report("toda", config.seed, checks, curve=ident)
    rep.extra["calibration_shift"] = fit.calibration_shift
    if config.csv_dir:
        table.to_csv(Path(config.csv_dir) / "toda_fields.csv")
    return rep
