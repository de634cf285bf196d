"""The scenario runners, one module per scenario, and their shared set-up.

``run_scenario`` of the command line imports a scenario's module when the
scenario runs, so a verdict compiles only the runner it runs.  This module
holds what the runners share: the curve set-up (``resolve_curve``,
``_curve_setup``, ``_reject_curve``), the seeded curve data
(``seeded_curve_points``, ``jacobian_fay_data``) and ``RS_KERNELS``.  It
imports no numpy and no pipeline module at load, so the command line loads
without them.  A runner imports its pipeline functions inside the function,
so that names replaced on those modules take effect.
"""

from __future__ import annotations

from ..errors import ConfigError, NumericalError
from ..reports import ScenarioConfig
from ..rng import Xoshiro256


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


# the kernel spec of each --kernel name of rs simulate
RS_KERNELS = {
    "rational": "rational",
    "trig": ("trig", 2.0),
    "elliptic": ("elliptic", 1.1j, 2.5),
}
