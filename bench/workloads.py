"""Seeded inputs of the three workloads (standard library only).

The program never sees the seed: each generator turns it into plain JSON
inputs (complex numbers as [re, im] pairs) that the workers feed to the
public ``theta_secant`` functions.  Every run attempts whole rounds of the
same operations, so attempted and failed counts repeat exactly; the
operations that fail today do so on inputs that do not depend on the seed.
Inputs on which an operation fails for some seeds only are left out (see
the notes at each generator).
"""

from __future__ import annotations

import cmath
import math
import random

def _c(z: complex) -> list:
    return [z.real, z.imag]


# --- curve-verdicts ----------------------------------------------------

# y^2 = x^5 - 1 and a small perturbation of it, as in the package corpus
FIXED_CURVES = {
    "x5m1": [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    "x5pert": [[-1.1, 0.05], [-0.2, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
}
# Scenario seeds per curve.  divisor-identities seeds 3 and 4 fail on both
# curves: the decomposable control takes the min over samples
# (cli.run_divisor_identities).  Random curves and random scenario seeds are
# left out: the seeded curve points of cli.jacobian_fay_data land next to a
# cut for about 1 seed in 300-1000, and the scenario then exits with
# PathFailure, so a run's failed count would depend on its seed.
SCENARIO_SEEDS = {
    "divisor-identities": (1, 2, 3, 4, 5, 6),
    "controls": (1, 2),
    "fay-trisecant": (1, 2, 3, 4),
    "toda": (1, 2, 3, 4),
    "bdhe": (1, 2, 3, 4),
}


def curve_verdicts(seed: int, rounds: int) -> dict:
    """Every (curve, scenario, scenario seed) once per round, in seeded order."""
    rng = random.Random(seed)
    corpus = [{"id": k, "kind": "hyperelliptic2", "poly": p} for k, p in FIXED_CURVES.items()]
    ops = []
    for _ in range(rounds):
        one = [{"curve": curve, "scenario": sc, "seed": s} for curve in FIXED_CURVES
               for sc, seeds in SCENARIO_SEEDS.items() for s in seeds]
        rng.shuffle(one)
        ops += one
    return {"corpus": corpus, "ops": ops}


# --- pole-dynamics -----------------------------------------------------

ELLIPTIC_TAU = 1.1j       # kernel modulus and scale, as in rs-dynamics
ELLIPTIC_OMEGA1 = 2.5
CROSSCHECK = {"tau": 1j, "U": 0.35 + 0.02j, "V": 0.21 - 0.05j, "Z": 0.12 + 0.28j}
CM5_SEED = (0.85 + 0.00j, -0.25 + 0.10j, 0.05 + 0.21j)
F2D_SEED = (0.35 + 0.05j, 0.21 - 0.13j, 0.12 + 0.33j)
RS_RUNS = (   # kernel, N, RK4 steps of H at size factor 1
    ("rational", 3, 300),
    ("trig", 3, 300),
    ("elliptic", 2, 20),
    ("elliptic", 3, 8),
)
H = 1e-3
ZERO_LAW_STARTS = (0.0, 0.1, 0.2, 0.3, 0.4)
SIX_FACTOR_LEVELS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75))


def _clear_of_poles(q: complex, kernel: str) -> bool:
    """Separation q keeps q, q+1, q-1 away from the kernel's poles."""
    for d in (0.0, 1.0, -1.0):
        w = q + d
        if kernel == "trig":
            w = complex((w.real + 1.0) % 2.0 - 1.0, w.imag)    # period 2
        elif kernel == "elliptic":
            b = round(w.imag / (ELLIPTIC_OMEGA1 * ELLIPTIC_TAU.imag))
            w -= b * ELLIPTIC_OMEGA1 * ELLIPTIC_TAU
            w = complex((w.real + 1.25) % 2.5 - 1.25, w.imag)
        if abs(w) < 0.3:
            return False
    return True


def rs_state(rng: random.Random, kernel: str, n: int):
    """Positions in a disc of radius 1.2, pairwise clear of poles; small velocities."""
    while True:
        x = [cmath.rect(1.2 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
             for _ in range(n)]
        if all(_clear_of_poles(x[i] - x[j], kernel)
               for i in range(n) for j in range(n) if i != j):
            break
    v = [cmath.rect(rng.uniform(0.1, 0.4), 2 * math.pi * rng.random()) for _ in range(n)]
    return [_c(z) for z in x], [_c(z) for z in v]


def size_factors(rounds: int) -> list:
    """One factor per round, spread evenly over [0.7, 1.3].

    Scaling each round's operations by it spreads their costs, so the median
    and tail fall among many distinct operation times instead of in a gap
    between a few fixed ones; the set of factors, and so the total work,
    is the same for every seed.
    """
    return [0.7 + 0.6 * (r + 0.5) / rounds for r in range(rounds)]


def pole_dynamics(seed: int, rounds: int) -> dict:
    rng = random.Random(seed)
    ops = []
    for r, f in enumerate(size_factors(rounds)):
        for kernel, n, steps in RS_RUNS:
            x, v = rs_state(rng, kernel, n)
            ops.append({"kind": "rs", "kernel": kernel, "x": x, "v": v,
                        "t_end": max(2, round(steps * f)) * H, "h": H})
        # the crosscheck compares the flow with the zeros at 6 samples: its
        # 2e-3 steps must come in multiples of 5
        ops.append({"kind": "crosscheck", "t_end": 0.01 * round(5 * f), "h": 2e-3,
                    "samples": 6})
        points = round(21 * f)
        # starts and levels change what the zero search costs: cycle through
        # them so every seed runs the same ones
        ops.append({"kind": "zero-law", "t0": ZERO_LAW_STARTS[r % len(ZERO_LAW_STARTS)],
                    "span": 0.005 * (points - 1), "points": points})
        ops.append({"kind": "six-factor",
                    "levels": list(SIX_FACTOR_LEVELS[r % len(SIX_FACTOR_LEVELS)])})
        ops.append({"kind": "series"})
    return {"ops": ops}


# --- siegel-sweep ------------------------------------------------------

LAM_RANGE = (0.03, 2.0)
LAM_STRATA = 10
POINTS_PER_MATRIX = 4
# thin slice: lam_min = 0.01, where truncation_radius raises RadiusCap
THIN = (
    {"B": [[[0.0, 0.01]]], "z": [[[0.1, 0.002]]]},
    {"B": [[[0.05, 0.01], [0.0, 0.0]], [[0.0, 0.0], [0.1, 1.0]]],
     "z": [[[0.1, 0.002], [-0.2, 0.1]]]},
)


def _unit(rng: random.Random, g: int) -> list:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(g)]
    n = math.sqrt(sum(abs(a) ** 2 for a in v))
    return [_c(a / n) for a in v]


def siegel_matrix(rng: random.Random, g: int, lam: float):
    """Re B uniform in [-1/2, 1/2]; Im B with smallest eigenvalue exactly lam."""
    if g == 1:
        Y = [[lam]]
        X = [[rng.uniform(-0.5, 0.5)]]
    else:
        lam2 = rng.uniform(max(lam, 0.3), 2.5)
        a = rng.uniform(0.0, math.pi)
        c, s = math.cos(a), math.sin(a)
        Y = [[lam * c * c + lam2 * s * s, (lam - lam2) * c * s],
             [(lam - lam2) * c * s, lam * s * s + lam2 * c * c]]
        off = rng.uniform(-0.5, 0.5)
        X = [[rng.uniform(-0.5, 0.5), off], [off, rng.uniform(-0.5, 0.5)]]
    return Y, [[[X[i][j], Y[i][j]] for j in range(g)] for i in range(g)]


def siegel_sweep(seed: int, rounds: int) -> dict:
    rng = random.Random(seed)
    ops = []
    lo, hi = LAM_RANGE
    for r in range(rounds):
        # log-spaced strata, each round at its own offset inside the stratum:
        # every seed sweeps the same smallest eigenvalues
        for k in range(LAM_STRATA):
            lam = lo * (hi / lo) ** ((k + (r + 0.5) / rounds) / LAM_STRATA)
            for g in (1, 2):
                Y, B = siegel_matrix(rng, g, lam)
                zs = []
                for _ in range(POINTS_PER_MATRIX):
                    t = [rng.uniform(-0.5, 0.5) for _ in range(g)]
                    zs.append([[rng.uniform(-0.5, 0.5),
                                sum(Y[i][j] * t[j] for j in range(g))] for i in range(g)])
                ops.append({"B": B, "z": zs, "d0": _unit(rng, g), "d1": _unit(rng, g),
                            "lam": lam})
        for thin in THIN:
            g = len(thin["B"])
            ops.append({"B": thin["B"], "z": thin["z"], "d0": [[1.0, 0.0]] * g,
                        "d1": [[0.0, 1.0]] * g, "lam": 0.01})
    return {"ops": ops}


GENERATORS = {
    "curve-verdicts": curve_verdicts,
    "pole-dynamics": pole_dynamics,
    "siegel-sweep": siegel_sweep,
}
