"""Steadiness self-check: do two sets of benchmark runs agree?

  python3 perfbench/steadiness.py

Runs `run.py --trace 0` once per seed (1 to SEEDS) and set (SETS of them),
for every workload in BENCHMARK.json, and for each end-to-end metric reports
the median and the spread of each set (the distance between the quartiles,
as a share of the median). It passes when

  * every run is correct;
  * every spread, setup_s's too, is within the metric's bound in
    BENCHMARK.json (the aim is a third of it, which is reported too);
  * no set's median differs from the first set's, in either direction, by
    more than the bound;
  * runs of one seed print identical result digests in every set.

Run it from the root of a source checkout; it takes about
SETS x SEEDS x workloads x 30 s. The summary is also written to
.perfbench/steadiness.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digests = next((ln.split()[1:] for ln in lines if ln.startswith("digests ")), [])
    return {"seed": seed, "result": result, "digests": digests}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`;
    negative when it is better."""
    return (later - first) / first if better == "lower" else (first - later) / first


def check(spec: dict, runs: dict) -> list:
    """Problems found in {workload: [set of runs, ...]}; prints the table."""
    problems = []
    for workload, sets in runs.items():
        for runs_ in sets:
            for r in runs_:
                if not r["result"]["correct"] or r["result"]["failed"]:
                    problems.append(f"{workload} seed {r['seed']}: not correct")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["result"]["metrics"][name]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            shifts = [worse_by(medians[0], m, metric["better"]) for m in medians[1:]]
            print(f"{workload:14s} {name:14s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.4f}" for s in spreads)
                  + ("  worse-by " + " ".join(f"{s:+.4f}" for s in shifts) if shifts else ""))
            for s in spreads:
                if s > bound:
                    problems.append(f"{workload} {name}: spread {s:.4f} > bound {bound}")
                elif s > bound / 3:
                    print(f"  note: spread {s:.4f} above a third of the bound")
            for s in shifts:
                if abs(s) > bound:
                    problems.append(f"{workload} {name}: median moved by {s:+.4f}, "
                                    f"more than {bound}")
        by_seed = {}
        for runs_ in sets:
            for r in runs_:
                by_seed.setdefault(r["seed"], []).append(r["digests"])
        for seed, lists in by_seed.items():
            n = min(len(d) for d in lists)
            if any(d[:n] != lists[0][:n] for d in lists):
                problems.append(f"{workload} seed {seed}: digests differ between sets")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    runs = {w["name"]: [] for w in spec["workloads"]}
    started = time.time()
    for _ in range(SETS):
        for w in runs:
            runs[w].append([one_run(w, seed, spec["run_seconds"])
                            for seed in range(1, SEEDS + 1)])
    print(f"{sum(len(s) for v in runs.values() for s in v)} runs "
          f"in {time.time() - started:.0f} s")
    problems = check(spec, runs)
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "steadiness.json"), "w") as f:
        json.dump({"runs": runs, "problems": problems}, f, indent=1)
    for p in problems:
        print(f"FAIL {p}")
    print("steady" if not problems else "not steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
