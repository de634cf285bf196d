"""Batch scenario runner.

    theta-secant <scenario> [--curve ID] [--corpus PATH] [--seed N]
                 [--out PATH] [--tol name=value ...] [--window key=value ...]
                 [--csv-dir DIR]
    theta-secant rs simulate --n N --t-end T --h H [--kernel K] [--seed N]
                 [--csv PATH] [--out PATH]

--curve names a record of the --corpus file, or of the package corpus
when --corpus is not given (default x5m1).  Reports and errors are JSON
on stdout (a report goes to --out when given).  Exit codes: 0 all checks
pass, 1 at least one residual check failed, 2 invalid input or config
(or output whose reader has gone, with nothing written), 3 numerical
infrastructure error; error reports carry the error class name verbatim.
The THETA_SECANT_CAP environment variable, an integer of at least 1,
overrides the theta truncation-radius cap; any other value exits 2.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError, ValidationError
from .reports import SCENARIOS, CheckRecord, Report, ScenarioConfig
from .rng import Xoshiro256, random_siegel, random_z
from .theta import PeriodMatrix, theta_jets, truncation_radius


# ----------------------------------------------------------------------
# curve resolution
# ----------------------------------------------------------------------

def resolve_curve(config: ScenarioConfig):
    """(id, CurveSpec) of config.curve (default x5m1) in the config's
    corpus file, or in the package corpus when it names none."""
    from .curves import default_corpus, load_corpus
    ident = config.curve or "x5m1"
    corpus = load_corpus(config.corpus) if config.corpus else default_corpus()
    if ident not in corpus:
        raise ConfigError(f"curve {ident!r} not found in corpus "
                          f"(available: {', '.join(sorted(corpus))})")
    return ident, corpus[ident]


def _curve_setup(config: ScenarioConfig) -> tuple:
    """(id, Abel data, seeded stream) of a scenario on a curve."""
    from .curves import build_abel_data
    ident, spec = resolve_curve(config)
    return ident, build_abel_data(spec), Xoshiro256(config.seed)


def _reject_curve(config: ScenarioConfig) -> None:
    """For scenarios that use no curve: --curve and --corpus are errors."""
    if config.curve or config.corpus:
        raise ConfigError(f"{config.scenario} takes no --curve or --corpus")


# ----------------------------------------------------------------------
# shared seeded data
# ----------------------------------------------------------------------

def seeded_curve_points(data, rng: Xoshiro256, count: int):
    """Generic points on a genus-2 curve, away from branch points and cuts.

    A point that is not clear of the cuts ends no clear segment, so no
    integration path could be routed from it.
    """
    from .curves import CurvePoint
    pts = []
    guard = 0
    while len(pts) < count and guard < 4000:
        guard += 1
        x = complex(rng.uniform_in(-1.8, 1.8), rng.uniform_in(-1.8, 1.8))
        if (min(abs(x - r) for r in data.e) < 0.3 or not data.seg_clear(x, x)
                or any(abs(x - q.x) < 0.35 for q in pts)):
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

def _values(Z, B: PeriodMatrix, radius: int | None = None) -> tuple:
    """theta at the rows of Z from one pass, as (mantissas, logscales)."""
    jets = theta_jets(Z, B, radius=radius)
    return jets.sums["f"], jets.logscale


def _rel_diff(a: tuple, b: tuple) -> float:
    """Largest |a - b| / (|a| + |b|) over the rows of two (mantissas, logscales)
    pairs, each row compared at its larger scale."""
    (ma, la), (mb, lb) = a, b
    ref = np.maximum(la, lb)
    ma, mb = ma * np.exp(la - ref), mb * np.exp(lb - ref)
    return float(np.max(np.abs(ma - mb) / (np.abs(ma) + np.abs(mb) + 1e-300)))


def run_theta_selftest(config: ScenarioConfig) -> Report:
    _reject_curve(config)
    rng = Xoshiro256(config.seed)
    n_even = config.win("samples")
    n_qp = max(20, n_even // 5)
    n_fd = max(10, n_even // 10)
    mats = [random_siegel(rng, 1 + (k % 2)) for k in range(6)]

    def points(count: int, scale: float = 0.7) -> list:
        """count seeded points, the k-th for mats[k % 6], as (B, Z) per matrix."""
        zs = [random_z(rng, mats[k % 6].g, scale) for k in range(count)]
        return [(B, np.array(zs[i::6])) for i, B in enumerate(mats) if zs[i::6]]

    worst_even = max(_rel_diff(_values(Z, B), _values(-Z, B)) for B, Z in points(n_even))
    worst_qp = 0.0
    for B, Z in points(n_qp):
        f, ls = _values(Z, B)
        for j in range(B.g):
            pref = -1j * np.pi * B.entries[j, j] - 2j * np.pi * Z[:, j]
            worst_qp = max(worst_qp, _rel_diff(_values(Z + B.entries[:, j], B),
                                               (f * np.exp(1j * pref.imag), ls + pref.real)))
    # central differences with h = 1e-4 against the 2-jet along (V, V): the
    # first order from z +- hV, the second from the four-point cross
    # difference, both O(h^2) accurate
    worst_fd1 = worst_fd2 = 0.0
    h = 1e-4
    for k in range(n_fd):
        B = mats[k % 6]
        z = random_z(rng, B.g, scale=0.4)
        V = np.array(rng.complex_vector(B.g, scale=0.8))
        jet = theta_jets(z[None], B, dirs=(V, V))
        hV = h * V
        f, ls = _values(np.array([z + hV, z - hV, z + hV + hV, z + hV - hV,
                                  z - hV + hV, z - hV - hV]), B)
        ref = ls.max()
        f = f * np.exp(ls - ref)
        fd1 = (f[0] - f[1]) * (0.5 / h)
        fd2 = (f[2] - f[3] - f[4] + f[5]) * (0.25 / h ** 2)
        worst_fd1 = max(worst_fd1, _rel_diff((jet.sums["d0"], jet.logscale), (fd1, ref)))
        worst_fd2 = max(worst_fd2, _rel_diff((jet.sums["d01"], jet.logscale), (fd2, ref)))
    worst_rad = 0.0
    for B, Z in points(n_fd, scale=0.5):
        r = truncation_radius(B, Z, 1e-13)
        worst_rad = max(worst_rad, _rel_diff(_values(Z, B, radius=r),
                                             _values(Z, B, radius=r + 4)))
    checks = [
        CheckRecord.le("evenness", worst_even, config.tol("evenness")),
        CheckRecord.le("quasi_periodicity", worst_qp, config.tol("quasi_periodicity")),
        CheckRecord.le("fd_first", worst_fd1, config.tol("fd_first")),
        CheckRecord.le("fd_second", worst_fd2, config.tol("fd_second")),
        CheckRecord.le("radius_stability", worst_rad, config.tol("radius_stability")),
    ]
    return Report("theta-selftest", config.seed, checks)


def run_fay_trisecant(config: ScenarioConfig) -> Report:
    from .kummer import collinearity_defect, fit_secancy_discrete
    ident, data, rng = _curve_setup(config)
    B = data.B
    tuples = config.win("tuples")
    worst_fit, worst_coll = 0.0, 0.0
    last = None
    for _ in range(tuples):
        U, V, A, _pts = jacobian_fay_data(data, rng)
        fit = fit_secancy_discrete(U, V, A, B)
        worst_fit = max(worst_fit, fit.residual)
        worst_coll = max(worst_coll, collinearity_defect(*fit.vectors))
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
    from .curves import abel_tangent
    from .divisor import (check_probe_depth, residual_cm7, residual_cm7d,
                          sample_theta_divisor, singular_locus_probe, verify_samples)
    depth = config.win("probe_depth")
    check_probe_depth(depth)
    ident, data, rng = _curve_setup(config)
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

    U, V, A, pts = jacobian_fay_data(data, rng)
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


def run_toda(config: ScenarioConfig) -> Report:
    from .curves import abel_tangent
    from .kummer import fit_secancy_semidiscrete
    from .lattices import (LatticeWindow, find_clear_base_point, refit_constants_toda,
                           toda_fields, toda_psi_residual)
    ident, data, rng = _curve_setup(config)
    B = data.B
    U, V, A, pts = jacobian_fay_data(data, rng)
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


def run_bdhe(config: ScenarioConfig) -> Report:
    from .kummer import fit_secancy_discrete
    from .lattices import (LatticeWindow, bdhe_fields, bdhe_psi_residual,
                           find_clear_base_point, refit_constants_bdhe)
    ident, data, rng = _curve_setup(config)
    B = data.B
    U, V, A, _pts = jacobian_fay_data(data, rng)
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


# frozen genus-1 seed data for the pole-dynamics and wave-series scenarios;
# chosen so the perturbed-tau negative controls discriminate strongly
CM5_SEED = (0.85 + 0.00j, -0.25 + 0.10j, 0.05 + 0.21j)
F2D_SEED = (0.35 + 0.05j, 0.21 - 0.13j, 0.12 + 0.33j)


def momentum_drift(traj) -> float:
    """Largest change of the total velocity along a trajectory, summed row
    by row (a vectorised sum rounds differently)."""
    return float(max(abs(traj.xdot[k].sum() - traj.xdot[0].sum())
                     for k in range(len(traj.t))))


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
    drift3 = momentum_drift(tr3)
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
    drifte = momentum_drift(rs_integrate(ste, 1.0, 1e-3))
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
    from .dynamics import DiscreteTau, PerturbedTau, f2d_residual, find_tau_zero
    from .series import (SemidiscreteSystem, discrete_residue_consistency,
                         new_semidiscrete_table, semidiscrete_cyclic_defect,
                         semidiscrete_resubstitution, semidiscrete_series_extend)
    ident, data, rng = _curve_setup(config)
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


def run_controls(config: ScenarioConfig) -> Report:
    from .divisor import residual_cm7d, sample_theta_divisor
    from .kummer import fit_secancy_discrete
    ident, data, rng = _curve_setup(config)
    B = data.B
    trials = config.win("trials")
    pos_fit, neg_fit = 0.0, np.inf
    for _ in range(trials):
        U, V, A, _ = jacobian_fay_data(data, rng)
        pos_fit = max(pos_fit, fit_secancy_discrete(U, V, A, B).residual)
    ctrl = rng.spawn(13)
    for _ in range(trials):
        Ur, Vr, Ar = (random_z(ctrl, 2, 0.35) for _ in range(3))
        neg_fit = min(neg_fit, fit_secancy_discrete(Ur, Vr, Ar, B).residual)
    Z = np.array([s.Z for s in sample_theta_divisor(B, config.seed, 4)])
    U, V, A, _ = jacobian_fay_data(data, rng.spawn(2))
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

# the kernel spec of each --kernel name of rs simulate
RS_KERNELS = {
    "rational": "rational",
    "trig": ("trig", 2.0),
    "elliptic": ("elliptic", 1.1j, 2.5),
}


def run_rs_simulate(args) -> Report:
    from .dynamics import RSState, rs_integrate
    t0 = time.perf_counter()
    n = args.n
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    rng = Xoshiro256(args.seed)
    kernel = RS_KERNELS[args.kernel]
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
        drift = momentum_drift(traj)
        checks.append(CheckRecord.le("momentum_conservation", drift, 1e-8))
    if args.csv:
        traj.to_csv(args.csv)
    rep = Report("rs-dynamics", args.seed, checks)
    rep.environment = {"version": __version__, "seed": args.seed}
    rep.extra = {"n": n, "kernel": args.kernel, "t_end": args.t_end, "h": args.h}
    rep.timing = {"wall_s": round(time.perf_counter() - t0, 3)}
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


def build_parser():
    import argparse     # only the command line needs it, not run_scenario

    class Parser(argparse.ArgumentParser):
        """A usage error is a ConfigError, reported like any other (subcommand
        parsers are of the same class)."""

        def error(self, message):
            raise ConfigError(message)

    ap = Parser(
        prog="theta-secant",
        description="Verify trisecant-type theta identities with quantified residuals.")
    sub = ap.add_subparsers(dest="command")

    def add_scenario_args(p):
        p.add_argument("--curve", default=None,
                       help="curve id in the corpus (default x5m1 where relevant)")
        p.add_argument("--corpus", default=None,
                       help="curve corpus JSON path (default: the package corpus)")
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

    rs = sub.add_parser("rs", help="Ruijsenaars-Schneider utilities")
    rssub = rs.add_subparsers(dest="rs_command")
    sim = rssub.add_parser("simulate", help="integrate an n-particle system")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--h", type=float, required=True,
                     help="RK4 step, which must divide --t-end")
    sim.add_argument("--kernel", default="rational",
                     choices=list(RS_KERNELS))
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--csv", default=None)
    sim.add_argument("--out", default=None)
    return ap


def _command(argv) -> tuple:
    """(text, exit code) of the command line argv: the JSON report, None
    when it went to --out, or the JSON error (a usage error too)."""
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise ConfigError("a command is required: one of "
                              + ", ".join([*SCENARIOS, "rs"]))
        if args.command == "rs":
            if args.rs_command != "simulate":
                raise ConfigError("usage: theta-secant rs simulate ...")
            report = run_rs_simulate(args)
        else:
            report = run_scenario(ScenarioConfig(
                scenario=args.command,
                curve=args.curve,
                seed=args.seed,
                tolerances=_kv_pairs(args.tol, "--tol"),
                window=_kv_pairs(args.window, "--window"),
                csv_dir=args.csv_dir,
                corpus=args.corpus,
            ))
        text = report.to_json()
        if args.out:
            Path(args.out).write_text(text + "\n")
            text = None
        return text, 0 if report.passed else 1
    except (ValidationError, OSError) as exc:
        # OSError: a report, CSV or --out file that cannot be written
        error, code = exc, 2
    except (NumericalError, ArithmeticError) as exc:
        # ArithmeticError: a value no float holds (an OverflowError from
        # math.exp or a float conversion) is a numerical failure too, not a crash
        error, code = exc, 3
    return json.dumps({"error": type(error).__name__, "message": str(error)},
                      sort_keys=True), code


def main(argv=None) -> int:
    text, code = _command(argv)
    try:
        if text is not None:
            # flushed here, so that a closed pipe raises here, not at exit
            print(text, flush=True)
    except BrokenPipeError:
        # the reader of stdout is gone (`| head`): nothing can reach it,
        # and the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
