"""The controls scenario: Jacobian fits and identities beside random and
decomposable ones, as gaps."""

from __future__ import annotations

import numpy as np

from .. import cli
from ..reports import CheckRecord, Report, ScenarioConfig
from ..rng import random_z
from ..theta import PeriodMatrix


def run_controls(config: ScenarioConfig) -> Report:
    from ..divisor import residual_cm7d, sample_theta_divisor
    from ..kummer import fit_secancy_discrete
    ident, data, rng = cli._curve_setup(config)
    B = data.B
    trials = config.win("trials")
    pos_fit, neg_fit = 0.0, np.inf
    for _ in range(trials):
        U, V, A, _ = cli.jacobian_fay_data(data, rng)
        pos_fit = max(pos_fit, fit_secancy_discrete(U, V, A, B).residual)
    ctrl = rng.spawn(13)
    for _ in range(trials):
        Ur, Vr, Ar = (random_z(ctrl, 2, 0.35) for _ in range(3))
        neg_fit = min(neg_fit, fit_secancy_discrete(Ur, Vr, Ar, B).residual)
    Z = np.array([s.Z for s in sample_theta_divisor(B, config.seed, 4)])
    U, V, A, _ = cli.jacobian_fay_data(data, rng.spawn(2))
    pos_id = max(residual_cm7d(Z, U, V, B))
    Bd = PeriodMatrix(np.diag([1j, 1.3j]))
    Zd = np.array([s.Z for s in sample_theta_divisor(Bd, config.seed + 1, 4)])
    # the strongest witness: the identity must hold at every divisor point
    dec = residual_cm7d(Zd, U, V, Bd)
    neg_id = max(dec)
    # fit_gap and identity_gap divide by Jacobian residuals at rounding level
    # (about 4e-15 for the fit), so any change in the order of evaluation
    # moves them by 1e-5 to 3e-3 relative
    checks = [
        CheckRecord.ge("fit_gap", neg_fit / max(pos_fit, 1e-300), 1e4),
        CheckRecord.ge("identity_gap", neg_id / max(pos_id, 1e-300), 1e4),
        CheckRecord.le("jacobian_fit", pos_fit, config.tol("jacobian_fit")),
        CheckRecord.ge("random_fit", neg_fit, config.tol("random_fit")),
        CheckRecord.le("jacobian_identity", pos_id, config.tol("jacobian_identity")),
        CheckRecord.ge("decomposable_identity", neg_id,
                       config.tol("decomposable_identity")),
    ]
    rep = Report("controls", config.seed, checks, curve=ident)
    rep.extra["decomposable_identity_min"] = min(dec)
    return rep
