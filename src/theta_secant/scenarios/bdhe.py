"""The bdhe scenario: the discrete secancy fit, and the fully discrete
linear problem its constants give on an (m, n) lattice window."""

from __future__ import annotations

from ..reports import CheckRecord, Report, ScenarioConfig
from . import _curve_setup, centered, jacobian_fay_data, random_secancy_control


def run_bdhe(config: ScenarioConfig) -> Report:
    from ..kummer import fit_secancy_discrete
    from ..lattices import (LatticeWindow, bdhe_fields, bdhe_psi_residual,
                            find_clear_base_point, refit_constants_bdhe)
    ident, data, rng = _curve_setup(config)
    B = data.B
    U, V, A, _pts = jacobian_fay_data(data, rng)
    fit = fit_secancy_discrete(U, V, A, B)
    win = LatticeWindow(m_range=centered(config.win("m_size")),
                        n_range=centered(config.win("n_size")))
    base = find_clear_base_point(U, V, fit.As, B, config.seed + 11, win)
    table = bdhe_fields(base, fit.p, fit.E)
    res = bdhe_psi_residual(table)
    ep2, eE2 = refit_constants_bdhe(table)
    ab_gap = max(abs(ep2 - fit.exp_p) / abs(fit.exp_p),
                 abs(eE2 - fit.exp_E) / abs(fit.exp_E))
    ctrl = random_secancy_control(B, rng.spawn(31), 1)
    checks = [
        CheckRecord.le("fit_residual", fit.residual, config.tol("fit_residual")),
        CheckRecord.le("psi_residual", res, config.tol("psi_residual")),
        CheckRecord.le("ab_consistency", ab_gap, config.tol("ab_consistency")),
        CheckRecord.ge("random_control", ctrl, config.tol("random_control")),
    ]
    rep = Report("bdhe", config.seed, checks, curve=ident, tables=[table])
    rep.extra["calibration_shift"] = fit.calibration_shift
    return rep
