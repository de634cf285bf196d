"""Per-layer tracing by wrapping public ``theta_secant`` names from outside.

``install()`` replaces each traced function with a wrapper in every loaded
``theta_secant`` module namespace that holds it (``from .theta import
theta`` copies the name, so patching only the defining module would miss
those callers).  Methods and static methods are patched on their class.
Nothing is installed unless ``install()`` is called, so an untraced run
executes the program unchanged.

Spans are aggregated in memory as they close: per name the call count,
inclusive seconds and self seconds (inclusive minus the time covered by
child spans).  A few layers also record a quantity from their arguments
or result (``theta.radius``, ``dynamics.rs_integrate.steps``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("theta", "scaled", "curves", "kummer", "divisor", "lattices",
           "dynamics", "series", "reports", "cli")

# (module, attribute path, what to record): "span" records calls, s and
# self_s; "count" only counts calls (for very hot, very cheap functions)
TARGETS = (
    ("theta", "truncation_radius", "span"),
    ("theta", "theta", "span"),
    ("theta", "theta_jet", "span"),
    ("theta", "level_two_vector", "span"),
    ("scaled", "ScaledComplex.make", "count"),
    ("kummer", "kummer_map", "span"),
    ("kummer", "fit_secancy_discrete", "span"),
    ("kummer", "fit_secancy_semidiscrete", "span"),
    ("curves", "build_abel_data", "span"),
    ("curves", "abel_map", "span"),
    ("curves", "fay_vectors", "span"),
    ("divisor", "line_roots", "span"),
    ("divisor", "sample_theta_divisor", "span"),
    ("divisor", "residual_cm7", "span"),
    ("divisor", "residual_cm7d", "span"),
    ("divisor", "singular_locus_probe", "span"),
    ("lattices", "toda_fields", "span"),
    ("lattices", "bdhe_fields", "span"),
    ("lattices", "find_clear_base_point", "span"),
    ("dynamics", "rs_integrate", "span"),
    ("dynamics", "EllipticKernel.F", "span"),
    ("dynamics", "EllipticKernel.guard", "span"),
    ("dynamics", "track_zero", "span"),
    ("dynamics", "find_tau_zero", "span"),
    ("dynamics", "f2d_residual", "span"),
    ("series", "discrete_residue_consistency", "span"),
    ("series", "semidiscrete_series_extend", "span"),
    ("cli", "run_scenario", "span"),
    ("reports", "Report.to_json", "span"),
)


class Tracer:
    """Aggregated spans: name -> [calls, inclusive s, self s]."""

    def __init__(self):
        self.stats = {}
        self.extra = {"theta.radius.sum": 0.0, "theta.radius.n": 0,
                      "dynamics.rs_integrate.steps": 0}
        self._child_time = [0.0]    # stack of child-span seconds per open span

    def span(self, name, fn, record=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_time.pop()
                child_time[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
            if record is not None:
                record(args, kwargs, out)
            return out

        return wrapper

    def count(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_radius(self, args, kwargs, out):
        self.extra["theta.radius.sum"] += out
        self.extra["theta.radius.n"] += 1

    def _record_steps(self, args, kwargs, out):
        self.extra["dynamics.rs_integrate.steps"] += len(out.t) - 1

    def snapshot(self) -> dict:
        """Flat per-layer numbers: <name>.calls, <name>.s, <name>.self_s, extras."""
        out = {}
        for name, (calls, s, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        out.update(self.extra)
        return out


def install() -> Tracer:
    """Wrap every traced name; returns the tracer that collects the spans."""
    tracer = Tracer()
    mods = {m: importlib.import_module(f"theta_secant.{m}") for m in MODULES}
    records = {"theta.truncation_radius": tracer._record_radius,
               "dynamics.rs_integrate": tracer._record_steps}
    for mod_name, path, kind in TARGETS:
        name = f"{mod_name}.{path}"
        owner = mods[mod_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if kind == "count":
            wrapped = tracer.count(name, fn)
        else:
            wrapped = tracer.span(name, fn, records.get(name))
        if cls_path:
            setattr(owner, attr,
                    staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            continue
        for mod in list(sys.modules.values()):
            mod_id = getattr(mod, "__name__", "")
            if mod_id != "theta_secant" and not mod_id.startswith("theta_secant."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return tracer
