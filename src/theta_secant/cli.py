"""Command line and scenario dispatch.

    theta-secant <scenario> [--curve ID] [--corpus PATH] [--seed N]
                 [--out PATH] [--tol name=value ...] [--window key=value ...]
                 [--csv-dir DIR]
    theta-secant rs simulate --n N --t-end T --h H [--kernel K] [--seed N]
                 [--csv PATH] [--out PATH]

--curve names a record of the --corpus file, or of the package corpus
when --corpus is not given (default x5m1); the six curve scenarios take
both, theta-selftest and rs-dynamics neither; --csv-dir the scenarios of
reports.CSV_FILES, which names each table's file.  An option a scenario
would ignore (reports.INPUTS), a window size outside its range
(reports.PARAMETERS), an empty option value, an --out or --csv naming a
directory, two outputs of one file and an rs simulate --n below 1 exit 2
before any runner loads.  Reports and errors are JSON on stdout (a report
goes to --out when given).  Exit codes: 0 all checks pass, 1 at least one
residual check failed, 2 invalid input or config (or output whose reader
has gone, with nothing written), 3 numerical infrastructure error; error
reports carry the error class name verbatim.
The THETA_SECANT_CAP environment variable, an integer of at least 1,
overrides the theta truncation-radius cap; any other value exits 2.

This module holds the command line and run_scenario, the one dispatch:
it imports a scenario's module of .scenarios at the run, so that a verdict
compiles only the runner it runs (rs simulate runs in
.scenarios.rs_dynamics), and stamps every report, rs simulate's too, with
the same environment and timing; it alone writes files, the report's
tables and then --out.  The runners' shared set-up lives in .scenarios;
loading this module loads neither numpy, csv nor the theta core.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import time
from importlib import import_module
from pathlib import Path

from . import __version__
from .errors import ConfigError, NumericalError, ValidationError
from .reports import CSV_FILES, SCENARIOS, Report, ScenarioConfig
from .scenarios import RS_KERNELS
# not read here: the benchmark's curve-verdicts check (bench/tasks.py) imports
# them from cli, until it imports them from .scenarios
from .scenarios import jacobian_fay_data, resolve_curve  # noqa: F401


# ----------------------------------------------------------------------
# scenario dispatch
# ----------------------------------------------------------------------

def _stamped(module: str, runner: str, arg) -> Report:
    """The report of the function runner of .scenarios.<module> on arg (a
    ScenarioConfig or the parsed rs simulate arguments), stamped with the
    package version, the seed of arg, numpy's version, dispatch class and
    OpenBLAS core (once the runner has loaded numpy) and the wall time of
    the run.  The module is imported at the call, so a verdict compiles only
    the runner it runs, and inside the clock, so every wall time counts the
    same imports."""
    t0 = time.perf_counter()
    report = getattr(import_module(f"{__package__}.scenarios.{module}"), runner)(arg)
    report.timing = {"wall_s": round(time.perf_counter() - t0, 3)}
    import numpy
    from .theta import blas_core, dispatch_class
    report.environment = {"version": __version__, "seed": arg.seed,
                          "numpy": numpy.__version__, "numpy_dispatch": dispatch_class(),
                          "blas_core": blas_core()}
    return report


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute one scenario and attach environment and timing metadata: the
    runner is run_<name> of its module of .scenarios.  It writes no file."""
    name = config.scenario.replace("-", "_")
    return _stamped(name, f"run_{name}", config)


# ----------------------------------------------------------------------
# argument parsing and entry point
# ----------------------------------------------------------------------

def _kv_pairs(values, what: str) -> dict:
    for item in values or ():
        if "=" not in item:
            raise ConfigError(f"{what} expects name=value, got {item!r}")
    return dict(item.split("=", 1) for item in values or ())


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

    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--curve", default=None,
                       help="curve id in the corpus (curve scenarios; default x5m1)")
        p.add_argument("--corpus", default=None,
                       help="curve corpus JSON path (default: the package corpus)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
        p.add_argument("--window", action="append", metavar="KEY=VALUE",
                       help="window/grid size override (repeatable)")
        p.add_argument("--csv-dir", default=None,
                       help="directory for CSV files (toda, bdhe, rs-dynamics)")

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


def _csv_paths(options: dict) -> list:
    """Before the first pass, the file of each table of the report: --csv-dir
    joined with the scenario's CSV_FILES, or --csv.  Refused (exit 2): a
    --csv-dir the scenario does not take, an empty value, an output file
    naming a directory, a missing directory, two outputs of one file."""
    command, csv_dir = options["command"], options.get("csv_dir")
    if csv_dir == "":
        raise ConfigError("--csv-dir is empty")
    if csv_dir is not None and command not in CSV_FILES:
        raise ConfigError(f"{command} takes no --csv-dir")
    files = [("--csv-dir", str(Path(csv_dir, name))) for name in CSV_FILES.get(command, ())
             if csv_dir]
    files += [(f"--{key}", options[key]) for key in ("csv", "out") if options.get(key) is not None]
    for option, path in files:
        if path == "":
            raise ConfigError(f"{option} is empty")
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for d in [csv_dir] + [Path(path).parent for _, path in files]:
        if d is not None and not Path(d).is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory", str(d))
    first = {}      # the option of each resolved path; --csv-dir's names differ
    for option, path in files:
        if first.setdefault(Path(path).resolve(), option) != option:
            raise ConfigError(f"{first[Path(path).resolve()]} and {option} name one file, {path}")
    return [Path(path) for option, path in files if option != "--out"]


def _write_csv(path: Path, table) -> None:
    import csv      # only a run that writes a table needs it
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table.csv_rows())


def _command(argv) -> tuple:
    """(text, exit code) of the command line argv: the JSON report, None
    when it went to --out, or the JSON error (a usage error too)."""
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise ConfigError("a command is required: one of "
                              + ", ".join([*SCENARIOS, "rs"]))
        if args.command == "rs" and args.rs_command != "simulate":
            raise ConfigError("usage: theta-secant rs simulate ...")
        if args.command == "rs" and args.n < 1:
            raise ConfigError(f"--n must be at least 1, got {args.n}")
        config = None if args.command == "rs" else ScenarioConfig(
            args.command, curve=args.curve, seed=args.seed, corpus=args.corpus,
            tolerances=_kv_pairs(args.tol, "--tol"),
            window=_kv_pairs(args.window, "--window"))
        csv_paths = _csv_paths(vars(args))
        report = (_stamped("rs_dynamics", "run_rs_simulate", args) if config is None
                  else run_scenario(config))
        for path, table in zip(csv_paths, report.tables):
            _write_csv(path, table)
        text = report.to_json()
        if args.out is not None:
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