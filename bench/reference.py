"""Reference figures: the 8 CLI scenarios, per-call costs, the tier-1 suite.

    python3 bench/reference.py [--scenarios] [--calls] [--tier1]

Run from the repository root; with no flag it measures all three.
  --scenarios  every CLI scenario at seed 7 in a fresh interpreter: exit code
               and the report's timing.wall_s (median over REPEAT runs)
  --calls      median per-call CPU time of the layers ROADMAP item 1 lists
  --tier1      wall time of the tier-1 test command
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import child_env  # noqa: E402

REPEAT = 3
SCENARIOS = ("theta-selftest", "fay-trisecant", "divisor-identities", "toda", "bdhe",
             "rs-dynamics", "wave-series", "controls")


def scenarios() -> dict:
    out = {}
    for name in SCENARIOS:
        walls, codes = [], set()
        for _ in range(REPEAT):
            proc = subprocess.run([sys.executable, "-m", "theta_secant.cli", name,
                                   "--seed", "7"], capture_output=True, text=True,
                                  cwd=ROOT, env=child_env(), timeout=300)
            codes.add(proc.returncode)
            walls.append(json.loads(proc.stdout)["timing"]["wall_s"])
        out[name] = {"wall_s": statistics.median(walls), "exit": sorted(codes)}
    return out


def per_call(fn, inner: int) -> float:
    """Median over REPEAT repeats of the mean CPU time of `inner` calls, in microseconds."""
    times = []
    for _ in range(REPEAT):
        t = time.process_time()
        for _ in range(inner):
            fn()
        times.append((time.process_time() - t) / inner)
    return statistics.median(times) * 1e6


def calls() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from theta_secant.curves import CurvePoint, CurveSpec, build_abel_data, fay_vectors
    from theta_secant.divisor import line_roots
    from theta_secant.dynamics import EllipticKernel, RSState, rs_integrate
    from theta_secant.kummer import fit_secancy_discrete
    from theta_secant.theta import (PeriodMatrix, ThetaRequest, level_two_vector,
                                    theta, theta_jet, truncation_radius)

    B1 = PeriodMatrix([[0.3 + 1.1j]])
    B2 = PeriodMatrix([[0.2 + 1.0j, 0.1 + 0.3j], [0.1 + 0.3j, -0.1 + 0.9j]])
    z1, z2 = np.array([0.21 + 0.1j]), np.array([0.21 + 0.1j, -0.13 + 0.05j])
    V = np.array([0.6 + 0.2j, -0.3 + 0.5j])
    curve = CurveSpec("hyperelliptic2", poly=[-1, 0, 0, 0, 0, 1])
    x5m1 = build_abel_data(curve)
    pts = [CurvePoint(x=x, sheet=s) for x, s in
           [(-0.2 + 1.3j, 1), (1.1 - 0.8j, -1), (-1.4 - 1.1j, 1), (0.6 + 0.5j, -1)]]
    U, W, A = fay_vectors(x5m1, *pts)
    kernel = EllipticKernel(1.1j, omega1=2.5)
    state = RSState(x=np.array([0.2 + 0.1j, 0.9 - 0.2j]),
                    xdot=np.array([0.4 + 0j, -0.3 + 0.1j]), kernel=kernel)
    us = {
        "truncation_radius_g2": per_call(lambda: truncation_radius(B2, z2, 1e-13), 200),
        "theta_g1_value": per_call(lambda: theta(ThetaRequest(z1, B1)), 200),
        "theta_g1_2jet": per_call(lambda: theta_jet(z1, B1, dirs=([1.0], [1.0])), 200),
        "theta_g2_value": per_call(lambda: theta(ThetaRequest(z2, B2)), 200),
        "theta_g2_1jet": per_call(lambda: theta_jet(z2, B2, dirs=(V,)), 200),
        "theta_g2_2jet": per_call(lambda: theta_jet(z2, B2, dirs=(V, V)), 200),
        "level_two_vector_g2": per_call(lambda: level_two_vector(z2, B2), 100),
        "build_abel_data_x5m1": per_call(lambda: build_abel_data(curve), 5),
        "line_roots_x5m1": per_call(lambda: line_roots(z2, V / np.linalg.norm(V), x5m1.B), 2),
        "rk4_step_elliptic_n2": per_call(lambda: rs_integrate(state, 1e-3, 1e-3), 10),
        "fit_secancy_discrete_x5m1": per_call(lambda: fit_secancy_discrete(U, W, A, x5m1.B), 2),
    }
    return {k: round(v, 1) for k, v in us.items()}


def tier1() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (":" + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors"], cwd=ROOT, env=env,
                   capture_output=True, timeout=1200)
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenarios", action="store_true")
    ap.add_argument("--calls", action="store_true")
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args(argv)
    every = not (args.scenarios or args.calls or args.tier1)
    out = {}
    if every or args.scenarios:
        out["scenario_wall_s_seed7"] = scenarios()
    if every or args.calls:
        out["per_call_us"] = calls()
    if every or args.tier1:
        out["tier1_wall_s"] = round(tier1(), 1)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
