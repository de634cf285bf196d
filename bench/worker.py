"""Worker process of the benchmark; started by run.py, never by hand.

    worker.py setup <workload> <inputs.json>
        fresh interpreter: import theta_secant and do the workload's set-up
        calls; prints {"setup_s", "wall_s", "probes"} (interp_probe)
    worker.py run <workload> <inputs.json> <trace 0|1>
        set up, time every operation in order, then check every output;
        prints one JSON object (pole-dynamics, siegel-sweep)
    worker.py op <inputs.json> <index> <trace 0|1>
        one curve-verdicts operation: a fresh interpreter that imports the
        CLI and runs one scenario; prints one JSON object with the report
        (interp_probe)
    worker.py check <inputs.json> <reports.json>
        check the reports of every curve-verdicts operation; prints
        {"checks"}

Timed intervals are measured in CPU seconds of this process (``*_s``) and
in wall seconds (``wall_s``).  The work is single-threaded (run.py pins the
BLAS pools to one thread), so the two agree on an idle machine; CPU time
leaves out the time the hypervisor holds the vCPU.  A speed probe runs
after every timed interval (and before the first operation of a run):
``probe`` in a long-lived worker, ``interp_probe`` in a fresh interpreter;
run.py rescales the run's times by the probes.
Times start at the top of this file, before numpy or theta_secant is
imported, so set-up and curve-verdicts operations include the import.
Peak RSS is read when the timed part ends, before the checks import mpmath.
"""

import time

CPU0, WALL0 = time.process_time(), time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def probe() -> float:
    """CPU seconds of a fixed numpy workload: how fast the machine runs now.

    Three complex exponentials over 4000 points (the shape of one lattice
    sum) and 60 calls on a 9-element array (the per-call overhead of a small
    theta evaluation).  Its slowdowns track those of theta evaluations with
    slope 1.0 on the reference machine; a pure-Python loop tracked them with
    slope 1.6 and left twice the residual spread.
    """
    import numpy as np
    big = np.linspace(-3.0, 3.0, 4000) * (0.3 + 1j)
    small = np.arange(9.0)
    t = time.process_time()
    for _ in range(3):
        np.exp(big * 1j - 0.1).sum()
    for _ in range(60):
        (small @ small) + np.sqrt(small).sum()
    return time.process_time() - t


def interp_probe() -> float:
    """CPU seconds of a fixed pure-Python workload: how fast a fresh
    interpreter runs now.

    Work in a fresh interpreter (imports, then a CLI scenario's mostly
    small numpy calls) slows less than `probe` in the machine's slow state:
    set-up 1.34x and curve-verdicts operations 1.26x, where `probe` slows
    1.82-1.86x and this loop 1.59-1.61x.  Rescaled by this probe, single
    set-up times spread by 0.18 of their median (by `probe` 0.26), and the
    same curve-verdicts operation in four runs by 0.07 (by `probe` 0.13).
    """
    t = time.process_time()
    d = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i * 3 // 7
    sorted(str(k) + "x" for k in range(800))
    return time.process_time() - t


def warm_probes(count: int, fn=probe) -> list:
    """`count` probes after one discarded call (a first call pays its set-up)."""
    fn()
    return [fn() for _ in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load(path):
    with open(path) as fh:
        return json.load(fh)


def curves_setup(inputs):
    """The CLI's imports and the corpus validation every scenario run repeats."""
    from theta_secant import cli  # noqa: F401
    from theta_secant.curves import load_corpus
    load_corpus(inputs["corpus_path"])


def setup_only(workload, inputs_path):
    inputs = load(inputs_path)
    if workload == "curve-verdicts":
        curves_setup(inputs)
    else:
        import tasks
        tasks.WORKLOADS[workload].setup(inputs)
    cpu, wall = time.process_time() - CPU0, time.perf_counter() - WALL0
    return {"setup_s": cpu, "wall_s": wall, "probes": warm_probes(3, interp_probe)}


def run_all(workload, inputs_path, trace):
    import tasks
    w = tasks.WORKLOADS[workload]
    prepared = w.setup(load(inputs_path))
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    from theta_secant.errors import ThetaSecantError
    op_s, wall_s, results, errors = [], [], [], []
    probes = warm_probes(1)
    for p in prepared:
        c, t = time.process_time(), time.perf_counter()
        try:
            results.append(w.run(p))
            errors.append(None)
        except ThetaSecantError as exc:
            results.append(None)
            errors.append(type(exc).__name__)
        op_s.append(time.process_time() - c)
        wall_s.append(time.perf_counter() - t)
        probes.append(probe())
    rss = peak_rss_mb()
    layers = tracer.snapshot() if tracer else {}
    checks = [w.check(p, r) if r is not None else [] for p, r in zip(prepared, results)]
    return {"op_s": op_s, "wall_s": wall_s, "probes": probes, "errors": errors,
            "checks": checks, "rss_mb": rss, "layers": layers}


def one_op(inputs_path, index, trace):
    inputs = load(inputs_path)
    op = inputs["ops"][index]
    corpus_path = inputs["corpus_path"]
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    from theta_secant.cli import run_scenario
    from theta_secant.errors import ThetaSecantError
    from theta_secant.reports import ScenarioConfig
    error = None
    try:
        # what `theta-secant <scenario> --curve ID --seed N --corpus PATH` does
        report = run_scenario(ScenarioConfig(op["scenario"], curve=op["curve"],
                                             seed=op["seed"], corpus=corpus_path))
        out = {"report": report, "json": report.to_json()}
    except ThetaSecantError as exc:
        out, error = None, type(exc).__name__
    cpu, wall = time.process_time() - CPU0, time.perf_counter() - WALL0
    probes = warm_probes(3, interp_probe)
    rss = peak_rss_mb()
    layers = tracer.snapshot() if tracer else {}
    if out is not None and not out["report"].passed:
        error = "check failed: " + ",".join(
            c.name for c in out["report"].checks if not c.passed)
    return {"op_s": cpu, "wall_s": wall, "probes": probes, "error": error,
            "report": out and out["json"], "rss_mb": rss, "layers": layers}


def check_ops(inputs_path, reports_path):
    """Check every curve-verdicts report in one process, after all are timed."""
    import tasks
    from theta_secant.reports import Report
    inputs = load(inputs_path)
    checks = []
    for op, text in zip(inputs["ops"], load(reports_path)):
        out = text and {"report": Report.from_dict(json.loads(text)), "json": text}
        checks.append(tasks.Curves.check(op, out, inputs["corpus_path"]) if out else [])
    return {"checks": checks}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        result = setup_only(argv[1], argv[2])
    elif mode == "run":
        result = run_all(argv[1], argv[2], argv[3] == "1")
    elif mode == "op":
        result = one_op(argv[1], int(argv[2]), argv[3] == "1")
    elif mode == "check":
        result = check_ops(argv[1], argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
