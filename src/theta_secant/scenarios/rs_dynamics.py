"""The rs-dynamics scenario and the `rs simulate` command: Ruijsenaars-
Schneider particles under the rational, trigonometric and elliptic
kernels, and the genus-1 zero law with its perturbed control."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from .. import __version__, cli
from ..errors import ConfigError
from ..reports import CheckRecord, Report, ScenarioConfig
from ..rng import Xoshiro256
from ..theta import PeriodMatrix


# frozen genus-1 seed data of the zero law; chosen so that its perturbed-tau
# negative control discriminates strongly
CM5_SEED = (0.85 + 0.00j, -0.25 + 0.10j, 0.05 + 0.21j)


def momentum_drift(traj) -> float:
    """Largest change of the total velocity along a trajectory, summed row
    by row (a vectorised sum rounds differently)."""
    return float(max(abs(traj.xdot[k].sum() - traj.xdot[0].sum())
                     for k in range(len(traj.t))))


def run_rs_dynamics(config: ScenarioConfig) -> Report:
    from ..dynamics import (PerturbedTau, RSState, ThetaTau, cm5_residual,
                            elliptic_zero_crosscheck, rs_integrate,
                            track_tau_zero, track_zero)
    cli._reject_curve(config)
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
    from ..dynamics import EllipticKernel
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


def run_rs_simulate(args) -> Report:
    from ..dynamics import RSState, rs_integrate
    t0 = time.perf_counter()
    n = args.n
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    rng = Xoshiro256(args.seed)
    kernel = cli.RS_KERNELS[args.kernel]
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
