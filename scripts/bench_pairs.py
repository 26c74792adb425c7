#!/usr/bin/env python3
"""Paired, alternating benchmark runs of two source checkouts.

For every workload W that BENCHMARK.json lists, and every seed S, this runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

with N the benchmark's `run_seconds`, once in the base checkout and once in
the changed one, alternating which goes first from pair to pair, so that slow drift of a shared machine falls
on both sides alike. It writes, per workload and end-to-end metric (from
BENCHMARK.json), each side's values, median and quartiles, the ratio of the
medians and the number of pairs the change won, plus each side's machine
block. Three verdicts go with each metric: `gain_shown`, when the change won
at least 9 of 10 pairs and its median is better than the base's by more
than the base's interquartile range; `worse_than_bound`, when its median
is worse than the base's by more than the metric's BENCHMARK.json bound (a
fraction of the base median); and `unresolved`, when the base's own runs
spread wider than that bound (interquartile range) and not every change run
is better than every base run, so a move within the bound cannot be told
from noise. The last line printed names the metrics of each verdict. It exits 1 if any run failed or reported an incorrect result.

Usage:
    python scripts/bench_pairs.py --base ../parent --change . \\
        --seeds 701-710 --out BENCH.json
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = next(json.loads(line[len("machine "):]) for line in lines
                             if line.startswith("machine "))
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(base, change, better: str, bound: float) -> dict:
    """One metric's paired values, base against change, and the verdicts."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    gain = sign * (c["median"] - b["median"])
    spread = b["q3"] - b["q1"]
    return {
        "better": better,
        "base": b,
        "change": c,
        "ratio_of_medians": c["median"] / b["median"],
        "change_better_pairs": wins,
        "pairs": len(base),
        "gain_shown": wins >= 0.9 * len(base) and gain > spread,
        "worse_than_bound": -gain > bound * abs(b["median"]),
        "unresolved": (spread > bound * abs(b["median"])
                       and min(sign * x for x in change) <= max(sign * x for x in base)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=pathlib.Path)
    ap.add_argument("--change", required=True, type=pathlib.Path)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0",
        "order": "pair i runs base first when i is even, change first when i is odd",
        "seeds": args.seeds,
        "machine": {},
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                ok = ok and result["correct"] and result["failed"] == 0
                report["machine"].setdefault(side, result.pop("machine"))
                runs[side].append(result)
                print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        metrics = {}
        for name, spec in end_to_end.items():
            metrics[name] = {
                "unit": runs["base"][0]["metrics"][name]["unit"],
                **compare([r["metrics"][name]["value"] for r in runs["base"]],
                          [r["metrics"][name]["value"] for r in runs["change"]],
                          spec["better"], spec["bound"]),
            }
        report["workloads"][workload] = {
            "metrics": metrics,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    verdicts = {key: [f"{w}/{m}" for w, block in report["workloads"].items()
                      for m, v in block["metrics"].items() if v[key]]
                for key in ("gain_shown", "worse_than_bound", "unresolved")}
    print("; ".join(f"{key}: {' '.join(names) or 'none'}" for key, names in verdicts.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
