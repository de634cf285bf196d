"""The fay-trisecant scenario: the discrete secancy fit on Fay's vectors
of a curve, against fits at random vectors."""

from __future__ import annotations

from ..reports import CheckRecord, Report, ScenarioConfig
from . import _curve_setup, jacobian_fay_data, random_secancy_control


def run_fay_trisecant(config: ScenarioConfig) -> Report:
    from ..kummer import collinearity_defect, fit_secancy_discrete
    ident, data, rng = _curve_setup(config)
    B = data.B
    tuples = config.win("tuples")
    worst_fit, worst_coll = 0.0, 0.0
    for _ in range(tuples):
        U, V, A, _pts = jacobian_fay_data(data, rng)
        fit = fit_secancy_discrete(U, V, A, B)
        worst_fit = max(worst_fit, fit.residual)
        worst_coll = max(worst_coll, collinearity_defect(*fit.vectors))
    best_ctrl = random_secancy_control(B, rng.spawn(17), max(2, tuples))
    # worst_fit sits at rounding level (about 4e-15), so any change in the
    # order of evaluation moves this ratio by 1e-5 to 3e-3 relative
    gap = best_ctrl / max(worst_fit, 1e-300)
    checks = [
        CheckRecord.le("fit_residual", worst_fit, config.tol("fit_residual")),
        CheckRecord.le("fay_collinearity", worst_coll, config.tol("fay_collinearity")),
        CheckRecord.ge("random_control", best_ctrl, config.tol("random_control")),
        CheckRecord.ge("discrimination_gap", gap, 1e4),
    ]
    rep = Report("fay-trisecant", config.seed, checks, curve=ident)
    rep.extra["calibration_shift"] = fit.calibration_shift
    return rep
