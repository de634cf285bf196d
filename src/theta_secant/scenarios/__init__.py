"""The scenario runners, one module per scenario, and their shared set-up.

``run_scenario`` of the command line imports a scenario's module when the
scenario runs, so a verdict compiles only the runner it runs.  This module
holds what the runners share: the curve set-up (``resolve_curve``,
``_curve_setup``), the seeded curve data (``seeded_curve_points``,
``jacobian_fay_data``), ``centered``, the two shared controls and
``RS_KERNELS``.  It imports no numpy and no pipeline module at load, so
the command line loads without them.  A function imports its pipeline
functions inside, so that names replaced there take effect.
"""

from __future__ import annotations

from ..errors import ConfigError, NumericalError
from ..reports import ScenarioConfig
from ..rng import Xoshiro256, random_z


# ----------------------------------------------------------------------
# curve resolution
# ----------------------------------------------------------------------

def resolve_curve(config: ScenarioConfig):
    """(id, CurveSpec) of config.curve (default x5m1) in the config's
    corpus file, or in the package corpus when it names none."""
    from ..curves import default_corpus, load_corpus
    ident = config.curve or "x5m1"
    corpus = load_corpus(config.corpus) if config.corpus else default_corpus()
    if ident not in corpus:
        raise ConfigError(f"curve {ident!r} not found in corpus "
                          f"(available: {', '.join(sorted(corpus))})")
    return ident, corpus[ident]


def _curve_setup(config: ScenarioConfig) -> tuple:
    """(id, Abel data, seeded stream) of a scenario on a curve."""
    from ..curves import build_abel_data
    ident, spec = resolve_curve(config)
    return ident, build_abel_data(spec), Xoshiro256(config.seed)


# ----------------------------------------------------------------------
# shared seeded data, window ranges and controls
# ----------------------------------------------------------------------

def seeded_curve_points(data, rng: Xoshiro256, count: int):
    """Generic points on a genus-2 curve, away from branch points and cuts.

    A point that is not clear of the cuts ends no clear segment, so no
    integration path could be routed from it.
    """
    from ..curves import CurvePoint
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
    from ..curves import fay_vectors
    a, b, c, d = seeded_curve_points(data, rng, 4)
    U, V, A = fay_vectors(data, a, b, c, d)
    return U, V, A, (a, b, c, d)


def centered(n: int) -> tuple:
    """The range (lo, hi) of the n consecutive integers from -(n // 2)."""
    return -(n // 2), n - n // 2 - 1


def random_secancy_control(B, rng: Xoshiro256, draws: int) -> float:
    """The least discrete secancy residual over draws fits, each at three
    random vectors: the value a Jacobian's fit residual must stay below."""
    from ..kummer import fit_secancy_discrete
    return min(fit_secancy_discrete(*(random_z(rng, B.g, 0.35) for _ in range(3)), B).residual
               for _ in range(draws))


def decomposable_control(seed: int, count: int, U, V) -> list:
    """cm7d at count divisor samples of the decomposable matrix
    diag(i, 1.3 i), drawn at seed + 1: an identity that must fail there."""
    import numpy as np
    from ..divisor import residual_cm7d, sample_theta_divisor
    from ..theta import PeriodMatrix
    Bd = PeriodMatrix(np.diag([1j, 1.3j]))
    return residual_cm7d(np.array([s.Z for s in sample_theta_divisor(Bd, seed + 1, count)]),
                         U, V, Bd)


# the kernel spec of each --kernel name of rs simulate
RS_KERNELS = {
    "rational": "rational",
    "trig": ("trig", 2.0),
    "elliptic": ("elliptic", 1.1j, 2.5),
}
