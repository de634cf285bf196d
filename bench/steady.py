"""Steadiness of the benchmark: repeated runs, alternating workloads.

    python3 bench/steady.py [--out bench/out/steady.json]

Ten rounds; round r (seed r, from 1) runs every workload of BENCHMARK.json
once at its run_seconds, one run at a time, so load comes from one run and
its single worker.  For every end-to-end metric it prints the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median next to the metric's bound; a spread at or above a third
of the bound is flagged and makes the benchmark not steady.  It also checks
that the share of failed operations is the same in every run.  --out writes
every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["environment"] = json.loads(lines[-2])["environment"]
    return out


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            res = run_once(w, seed, spec["run_seconds"])
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)

    summary, steady = {}, True
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        correct = all(r["correct"] for r in runs[w])
        summary[w] = {"failed_share": sorted(shares), "correct": correct, "metrics": {}}
        print(f"\n{w}: failed share {sorted(shares)} correct={correct}")
        steady &= len(shares) == 1 and correct
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs[w]])
            s["bound"] = m["bound"]
            summary[w]["metrics"][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"  {m['name']:<12} median {s['median']:<10.4g} q1 {s['q1']:<10.4g} "
                  f"q3 {s['q3']:<10.4g} spread {s['spread']:.3f}  bound {m['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
