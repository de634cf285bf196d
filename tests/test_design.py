"""Design rules the source keeps: text that a removed second form, a second
import path or a second copy of a shared step would bring back.

Each rule is (pattern, file globs under src/, excluded files, reason); the
pattern is searched line by line in the files' bytes, and a hit fails with
file:line and the reason."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PY, RUNNERS = ["**/*.py"], ["theta_secant/scenarios/*.py"]


def literal(*words):
    """One pattern matching any of words verbatim (grep -F -e ... -e ...)."""
    return re.compile(b"|".join(re.escape(w.encode()) for w in words))


RULES = {
    "scaled": (re.compile(b"scaled", re.IGNORECASE), RUNNERS + [
        f"theta_secant/{m}.py" for m in
        ("divisor", "lattices", "dynamics", "series", "kummer", "cli", "curves")], (),
        "pipelines and scenarios read the core's arrays: none mentions scaled or ScaledComplex"),
    "dataclass": (literal("dataclass"), ["theta_secant/*.py"] + RUNNERS, (),
                  "records are plain classes and NamedTuples: importing the package "
                  "builds no dataclass"),
    "characteristics": (literal("ThetaCharacteristic", "char="), ["theta_secant/**/*"], (),
                        "the core sums one series, the plain theta, without characteristics"),
    "reductions": (literal("lattice_reduce", "_zpoints", "_leggauss", "detour_scale",
                           "quad_tol"), PY, (),
                   "one argument reduction (theta._reduce), divisor points as (P, g) rows, "
                   "one node-doubling loop, and quadrature knobs as constants"),
    "genus-two-records": (literal('"genus1"', 'split("#"', 'add_parser("check"', "line_seed"),
                          PY, (),
                          "genus-2 curve records only, --corpus as the one corpus selector, "
                          "one spelling per command, and no sample field that nothing reads"),
    "curve-built-once": (literal("projective_distance", "def obstacles", "routed_integral",
                                 "def _level_two", "omega1: complex = 1.0"), PY, (),
                         "curve roots and cuts built once, one level-two function, no "
                         "projective gap that no program path calls, and an elliptic kernel "
                         "that names its period (with omega1 = 1 its F vanishes)"),
    "root-imports-nothing": (re.compile(rb"^\s*(import|from)\s"), ["theta_secant/__init__.py"],
                             (), "one import path per name: the package root imports nothing"),
    "runners-skip-cli": (literal("import cli", "cli."), RUNNERS, (),
                         "the runners take their shared set-up from .scenarios, never from cli"),
    "one-dispatch": (literal("RUNNERS", "def _runner"), PY, (),
                     "run_scenario is the one dispatch"),
    "inputs-in-one-table": (literal("_reject_curve", '== "probe_depth"', "WINDOW_MIN",
                                    "check_probe_depth"), PY, (),
                            "reports.INPUTS says what a scenario reads and PARAMETERS each "
                            "window's range: the config refuses the rest at construction, "
                            "and no runner checks it"),
    "inputs-in-one-table-runners": (literal("raise ConfigError"),
                                    ["theta_secant/scenarios/[!_]*.py"], (),
                                    "no runner checks an input: the config and cli refuse "
                                    "it before any runner module loads"),
    "theta-holds-jets-and-coercion": (
        literal("class FixedJets", "np.atleast_1d(np.asarray"), PY, ("theta_secant/theta.py",),
        "one holder of a fixed (B, dirs) and one vector coercion, both in theta"),
    "period-matrix-attributes": (literal("_y_inv", "_lam_min"), PY, (),
                                 "a period matrix keeps its facts as attributes"),
    "one-curve-validator": (literal("via=None", "def _c(", "levels: dict | None",
                                    "emax[0] if len(emax)"), PY, (),
                            "one validator of a curve record (CurveSpec parses every "
                            "coefficient), one route per Abel map, and no option or special "
                            "case that no caller takes"),
    "one-grid": (literal("def axes", "ts, xs = win.axes", 'self.kind == "bdhe"', 'FieldTable("',
                         "p1.g =="), PY, (),
                 "one grid for both lattice problems, integer axis first: the window stores "
                 "its axes, a field table reads its problem from its window, and a level-two "
                 "vector's genus is the length of its coordinates"),
    "one-pass-per-point-set": (literal("def _window_jets", "toda_fields(U", "bdhe_fields(U",
                                       "shifts = [(k, off)", "tau = ThetaTau(U, V, Z, B)"),
                               PY, (),
                               "one pass per set of points: the field tables read the "
                               "WindowPass that the base-point search certified, and "
                               "cm5_residual reads v(eta +- 1) from the ZeroPath, building "
                               "no section of its own"),
    "one-copy-per-step": (literal("def _rescale", "def _max_relative", "factor tau(",
                                  "-nm // 2"), PY, (),
                          "one copy of each shared step: theta's rescale and relative_gap, "
                          "dynamics' guarded pass at a discrete zero's six neighbours, and "
                          "one centered window range"),
    "one-file-writer": (literal("import csv", "def to_csv", "csv_dir"), PY,
                        ("theta_secant/cli.py",),
                        "the runners hand their tables to the report, and cli alone writes "
                        "files: no other module imports csv, and no config holds a CSV "
                        "directory"),
    "csv-names-in-one-table": (literal('.csv"'), PY, ("theta_secant/reports.py",),
                               "reports.CSV_FILES is the one table of CSV file names"),
    "no-blas-or-lapack": (
        re.compile(rb"polyfit|polyint|linalg(?!\.eigvalsh\(Y\)|\.inv\(Y\))| @ |np\.roots|lstsq"
                   rb"|svd"), PY, (),
        "products and norms are sums in index order (theta._sum_last), 2 x 2 solves "
        "closed forms, least squares kummer._least_squares2, collinearity a one-sided "
        "Jacobi and curve roots an Aberth-Ehrlich iteration, and the wave series "
        "integrates with fixed weights (series._Q5): no BLAS or LAPACK routine runs "
        "for genus 1 and 2, and only PeriodMatrix's eigvalsh(Y) and inv(Y) of g >= 3 "
        "call numpy.linalg"),
    "one-inverse-one-evaluator": (
        literal("def _fma", "_least_eigenvalue2", "dlae2", "polyval"), PY, (),
        "one polynomial evaluator (curves._horner) and closed-form genus-2 facts of Im B: "
        "no replica of a LAPACK path and no exact fused multiply-add"),
    "one-two-by-two-inverse": (
        literal("/ det"), PY, ("theta_secant/theta.py",),
        "theta._inverse2 is the one 2 x 2 inverse, for the a-periods and for Im B"),
    "decomposable-control-once": (literal("np.diag([1j, 1.3j])"), RUNNERS,
                                  ("theta_secant/scenarios/__init__.py",),
                                  "the decomposable control is defined in the scenarios "
                                  "package module, not in a runner"),
}


@pytest.mark.parametrize("rule", RULES)
def test_the_source_keeps_its_design(rule):
    pattern, globs, excluded, reason = RULES[rule]
    src = ROOT / "src"
    scope = sorted({p for g in globs for p in src.glob(g) if p.is_file()
                    and "__pycache__" not in p.parts
                    and p.relative_to(src).as_posix() not in excluded})
    assert scope, f"{rule}: no file matches {globs}"
    hits = [f"{path.relative_to(ROOT)}:{n}: {line.decode(errors='replace').strip()}"
            for path in scope
            for n, line in enumerate(path.read_bytes().splitlines(), 1)
            if pattern.search(line)]
    assert not hits, f"{reason}; found:\n" + "\n".join(hits)
