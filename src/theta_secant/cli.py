"""Command line and scenario dispatch.

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

Each scenario's runner is a module of .scenarios (rs simulate runs in
.scenarios.rs_dynamics).  This module keeps what the runners share or what
is read from outside the package: the curve set-up (resolve_curve,
_curve_setup, _reject_curve), the seeded curve data (seeded_curve_points,
jacobian_fay_data), RUNNERS, the one dispatch table, whose entries import
their runner's module at the first call, so that a verdict compiles only
the runner it runs; run_scenario, RS_KERNELS and the command line.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib import import_module
from pathlib import Path

from . import __version__
from .errors import ConfigError, NumericalError, ValidationError
from .reports import SCENARIOS, Report, ScenarioConfig
from .rng import Xoshiro256


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
# scenario dispatch
# ----------------------------------------------------------------------

def _runner(scenario: str):
    """The runner of a scenario, imported from its module of .scenarios at
    its first call: a verdict compiles only the runner it runs."""
    name = scenario.replace("-", "_")

    def run(config: ScenarioConfig) -> Report:
        module = import_module(f"{__package__}.scenarios.{name}")
        return getattr(module, f"run_{name}")(config)
    return run


RUNNERS = {scenario: _runner(scenario) for scenario in SCENARIOS}


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
            from .scenarios.rs_dynamics import run_rs_simulate
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