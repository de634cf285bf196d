"""Benchmark of theta-secant: one workload, one seed, one JSON result.

    python3 bench/run.py --workload curve-verdicts|pole-dynamics|siegel-sweep
                         --seed N --seconds S --trace 0|1

Run from the repository root.  The seed makes the inputs (bench/workloads.py);
--seconds sets how many whole rounds of operations the run attempts, through
a nominal cost per round measured on the reference machine, with at least
MIN_OPS operations.  The count does not depend on how fast this run goes, so
attempted and failed counts repeat exactly.  MIN_OPS sets the count of
curve-verdicts, whose operations are the slowest: at --seconds 20 its run
lasts about a minute, twice that with --trace 1.

Times are CPU seconds of the process doing the work, rescaled by a speed
probe.  The reference machine (2 vCPUs) loses its vCPU to the hypervisor for
a share of the time that changes from run to run, and at other times runs
up to twice as slow for seconds at a time; raw times of identical work
spread by 20-70% between runs.  The work is single-threaded, so its CPU time
is its wall time minus the time the vCPU was taken away.  The worker also
runs a fixed numpy probe (worker.probe, timed in CPU seconds) next to every
timed interval, and each interval is multiplied by
PROBE_REF_S / mean(its probes): it reads as the time the same work takes on
the reference machine in its fast state.  Work in a fresh interpreter (a
set-up run, a curve-verdicts operation) is rescaled the same way by a
pure-Python probe (worker.interp_probe), which tracks it better.  Set-up
runs before and after the timed pass.  Raw CPU and wall times and the probes
are kept in bench/out/.../result.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, from
an untraced pass.  With --trace 1 they are the per-layer ones: the run makes
the untraced pass and then a traced pass over the same operations in fresh
processes, and reports the difference as trace.overhead_pct.  The line
before it records the machine, versions, commit and seed; raw output goes to
bench/out/.

Load comes from this one process and one worker at a time (at most two
processes alive), with the BLAS thread pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import GENERATORS  # noqa: E402

MIN_OPS = 40               # op_s_tail needs ten operations beyond it
SETUP_RUNS = 15            # fresh set-up interpreters before, and again after, the
                           # untraced pass; setup_s is the median of all 30
CHILD_TIMEOUT_S = 150
PROBE_REF_S = 370e-6       # worker.probe() on the reference machine in its fast state
INTERP_PROBE_REF_S = 1.10e-3   # worker.interp_probe() likewise
# nominal seconds per round, checks included: --seconds S makes
# max(rounds for MIN_OPS, round(S / ROUND_S)) rounds
ROUND_S = {"curve-verdicts": 40.0, "pole-dynamics": 3.5, "siegel-sweep": 2.5}
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(*args) -> dict:
    """Run bench/worker.py to completion and parse its JSON line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {args} printed no result") from exc


def rounds_for(workload: str, seconds: int) -> int:
    per_round = len(GENERATORS[workload](0, 1)["ops"])
    return max(math.ceil(MIN_OPS / per_round), round(seconds / ROUND_S[workload]))


def make_inputs(workload: str, seed: int, seconds: int, out_dir: Path) -> tuple:
    inputs = GENERATORS[workload](seed, rounds_for(workload, seconds))
    if workload == "curve-verdicts":
        corpus_path = out_dir / "corpus.json"
        corpus_path.write_text(json.dumps(inputs.pop("corpus")))
        inputs["corpus_path"] = str(corpus_path)
    path = out_dir / "inputs.json"
    path.write_text(json.dumps(inputs))
    return path, inputs


def rescaled(seconds: float, probes: list, ref: float = PROBE_REF_S) -> float:
    """CPU time rescaled to the fast state by the probes taken next to it."""
    return seconds * ref * len(probes) / sum(probes)


def one_pass(workload: str, inputs_path: Path, n_ops: int, trace: bool) -> dict:
    """All operations once, in fresh worker processes, then their checks."""
    if workload != "curve-verdicts":
        res = worker("run", workload, inputs_path, int(trace))
        p = res["probes"]     # one before the first operation, one after each
        res["scaled_s"] = [rescaled(t, p[i:i + 2]) for i, t in enumerate(res["op_s"])]
        return res
    ops = [worker("op", inputs_path, i, int(trace)) for i in range(n_ops)]
    reports_path = inputs_path.with_name(f"reports_trace{int(trace)}.json")
    reports_path.write_text(json.dumps([op["report"] for op in ops]))
    checks = worker("check", inputs_path, reports_path)["checks"]
    layers = {}
    for op in ops:
        for key, value in op["layers"].items():
            layers[key] = layers.get(key, 0) + value
    return {"op_s": [op["op_s"] for op in ops], "wall_s": [op["wall_s"] for op in ops],
            "scaled_s": [rescaled(op["op_s"], op["probes"], INTERP_PROBE_REF_S) for op in ops],
            "probes": [op["probes"] for op in ops],
            "errors": [op["error"] for op in ops], "checks": checks,
            "rss_mb": max(op["rss_mb"] for op in ops), "layers": layers}


def tail(values: list) -> float:
    """Highest percentile with at least ten operations beyond it."""
    return sorted(values)[len(values) - 11]


def end_to_end(res: dict, setup: list, passed: int) -> dict:
    return {
        "ops_per_s": passed / sum(res["scaled_s"]),
        "op_s_p50": statistics.median(res["scaled_s"]),
        "op_s_tail": tail(res["scaled_s"]),
        "setup_s": statistics.median(rescaled(s["setup_s"], s["probes"], INTERP_PROBE_REF_S)
                                     for s in setup),
        "peak_rss_mb": res["rss_mb"],
    }


def per_layer(traced: dict, plain: dict, names: list) -> dict:
    layers = dict(traced["layers"])
    n = layers.pop("theta.radius.n", 0)
    layers["theta.radius.mean"] = layers.pop("theta.radius.sum", 0.0) / n if n else 0.0
    layers["trace.overhead_pct"] = 100.0 * (sum(traced["scaled_s"]) / sum(plain["scaled_s"])
                                            - 1.0)
    return {name: layers.get(name, 0) for name in names}


def environment(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "theta_secant" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from a checkout holding src/theta_secant and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    metric_defs = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = BENCH / "out" / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs_path, inputs = make_inputs(args.workload, args.seed, args.seconds, out_dir)
    n_ops = len(inputs["ops"])
    env = environment(args)

    t0 = time.perf_counter()
    try:
        # setup_s is an end-to-end metric: a traced run does no set-up runs
        runs = 0 if args.trace else SETUP_RUNS
        setup = [worker("setup", args.workload, inputs_path) for _ in range(runs)]
        plain = one_pass(args.workload, inputs_path, n_ops, False)
        setup += [worker("setup", args.workload, inputs_path) for _ in range(runs)]
        traced = one_pass(args.workload, inputs_path, n_ops, True) if args.trace else None
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failed = sum(e is not None for e in plain["errors"])
    wrong = [(i, msg) for i, (e, msgs) in enumerate(zip(plain["errors"], plain["checks"]))
             if e is None for msg in msgs]
    if traced is not None:
        wrong += [(i, "traced: " + msg) for i, (e, msgs)
                  in enumerate(zip(traced["errors"], traced["checks"])) if e is None
                  for msg in msgs]
        if traced["errors"] != plain["errors"]:
            wrong.append((-1, "traced pass failed other operations than the plain pass"))
    if args.trace:
        values = per_layer(traced, plain, [m["name"] for m in metric_defs])
    else:
        values = end_to_end(plain, setup, n_ops - failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_defs}
    result = {"correct": not wrong, "attempted": n_ops, "failed": failed, "metrics": metrics}

    raw = {"environment": env, "wall_s": time.perf_counter() - t0, "setup_s": setup,
           "plain": plain, "traced": traced, "check_failures": wrong, "result": result}
    (out_dir / "result.json").write_text(json.dumps(raw, indent=1, default=str))
    for i, msg in wrong[:20]:
        print(f"bench: check failed on operation {i}: {msg}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
