"""The divisor-identities scenario: the theta-divisor identities (CM7,
CM7d) at divisor samples of a curve, their genus-1 case, the singular
locus probe, and decomposable and random controls."""

from __future__ import annotations

import numpy as np

from .. import cli
from ..reports import CheckRecord, Report, ScenarioConfig
from ..rng import random_z
from ..theta import PeriodMatrix


def run_divisor_identities(config: ScenarioConfig) -> Report:
    from ..curves import abel_tangent
    from ..divisor import (check_probe_depth, residual_cm7, residual_cm7d,
                           sample_theta_divisor, singular_locus_probe, verify_samples)
    depth = config.win("probe_depth")
    check_probe_depth(depth)
    ident, data, rng = cli._curve_setup(config)
    B = data.B

    # genus-1 degenerate case at the unique odd zero
    B1 = PeriodMatrix([[1j]])
    Z1 = np.array([[(1.0 + 1j) / 2.0]])
    g1rng = rng.spawn(5)
    worst_g1 = 0.0
    for _ in range(config.win("g1_pairs")):
        U1 = random_z(g1rng, 1, 0.4)
        V1 = random_z(g1rng, 1, 0.4)
        worst_g1 = max(worst_g1, residual_cm7d(Z1, U1, V1, B1)[0])

    count = config.win("samples")
    samples = sample_theta_divisor(B, config.seed, count)
    worst_member = max(s.theta_abs for s in samples)
    Z = np.array([s.Z for s in samples])
    worst_reverify = verify_samples(Z, B)

    U, V, A, pts = cli.jacobian_fay_data(data, rng)
    # the Jacobian-side residuals share (U, V): one call each over all the
    # samples, with the lattice passes of one sample; cm7 pairs U = A(c) - A(b)
    # with the tangent at b
    worst_cm7d = max(residual_cm7d(Z, U, V, B))
    worst_cm7 = max(residual_cm7(Z, U, abel_tangent(data, pts[1]), B))
    probe = min(singular_locus_probe(Z, U, V, B, depth))

    Bd = PeriodMatrix(np.diag([1j, 1.3j]))
    # the negative controls take the strongest witness: the identities must
    # hold at every divisor point, so one clear violation refutes them
    Zd = np.array([s.Z for s in sample_theta_divisor(Bd, config.seed + 1, min(count, 5))])
    dec = residual_cm7d(Zd, U, V, Bd)
    ctrl_rng = rng.spawn(23)
    # three rounds over the samples, each sample with its own random pair
    rand = [[residual_cm7(z[None], random_z(ctrl_rng, 2, 0.4),
                          random_z(ctrl_rng, 2, 0.4), B)[0] for z in Z]
            for _ in range(3)]

    checks = [
        CheckRecord.le("genus1_identity", worst_g1, config.tol("genus1_identity")),
        CheckRecord.le("divisor_membership", worst_member,
                       config.tol("divisor_membership")),
        CheckRecord.le("divisor_reverify", worst_reverify,
                       config.tol("divisor_reverify")),
        CheckRecord.le("cm7d", worst_cm7d, config.tol("cm7d")),
        CheckRecord.le("cm7", worst_cm7, config.tol("cm7")),
        CheckRecord.ge("cm7d_decomposable_control", max(dec),
                       config.tol("cm7d_decomposable_control")),
        CheckRecord.ge("cm7_random_control", max(map(max, rand)),
                       config.tol("cm7_random_control")),
        CheckRecord.ge("singular_locus_probe", probe,
                       config.tol("singular_locus_probe")),
    ]
    rep = Report("divisor-identities", config.seed, checks, curve=ident)
    # the weakest witnesses, reported beside the strongest
    rep.extra["cm7d_decomposable_control_min"] = min(dec)
    rep.extra["cm7_random_control_max_of_mins"] = max(map(min, rand))
    return rep
