"""The bdhe scenario: the discrete secancy fit, and the fully discrete
linear problem its constants give on an (m, n) lattice window."""

from __future__ import annotations

from pathlib import Path

from .. import cli
from ..reports import CheckRecord, Report, ScenarioConfig
from ..rng import random_z


def run_bdhe(config: ScenarioConfig) -> Report:
    from ..kummer import fit_secancy_discrete
    from ..lattices import (LatticeWindow, bdhe_fields, bdhe_psi_residual,
                            find_clear_base_point, refit_constants_bdhe)
    ident, data, rng = cli._curve_setup(config)
    B = data.B
    U, V, A, _pts = cli.jacobian_fay_data(data, rng)
    fit = fit_secancy_discrete(U, V, A, B)
    nm = config.win("m_size")
    nn = config.win("n_size")
    win = LatticeWindow(m_range=(-nm // 2, nm - nm // 2 - 1),
                        n_range=(-nn // 2, nn - nn // 2 - 1))
    Z = find_clear_base_point(U, V, fit.As, B, config.seed + 11, win)
    table = bdhe_fields(U, V, fit.As, fit.p, fit.E, Z, win, B)
    res = bdhe_psi_residual(table)
    ep2, eE2 = refit_constants_bdhe(table)
    ab_gap = max(abs(ep2 - fit.exp_p) / abs(fit.exp_p),
                 abs(eE2 - fit.exp_E) / abs(fit.exp_E))
    ctrl_rng = rng.spawn(31)
    Ur, Vr, Ar = (random_z(ctrl_rng, B.g, 0.35) for _ in range(3))
    ctrl = fit_secancy_discrete(Ur, Vr, Ar, B).residual
    checks = [
        CheckRecord.le("fit_residual", fit.residual, config.tol("fit_residual")),
        CheckRecord.le("psi_residual", res, config.tol("psi_residual")),
        CheckRecord.le("ab_consistency", ab_gap, config.tol("ab_consistency")),
        CheckRecord.ge("random_control", ctrl, config.tol("random_control")),
    ]
    rep = Report("bdhe", config.seed, checks, curve=ident)
    rep.extra["calibration_shift"] = fit.calibration_shift
    if config.csv_dir:
        table.to_csv(Path(config.csv_dir) / "bdhe_fields.csv")
    return rep
