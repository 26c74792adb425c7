#!/usr/bin/env python3
"""Cost of one replication, layer by layer: ms per replication.

Runs setting2's power and global-null passes at one thread and times, per
replication, the layers of `harness.replication_inputs` and of the arms that
read it:

- generate: `generate_trial`;
- schedule: `schedule_analyses`;
- futility: the futility gate as the Monte Carlo runs it: the futility
  snapshot's stage-1 counts plus the sign of each population's Cox score
  at its threshold (`FutilitySnapshot.below`), which every gated arm then
  reads from the snapshot's cache;
- fills and engine: every design arm is decided twice on the same analysis
  snapshots, gated arms first, as the Monte Carlo orders them. The first
  pass builds the snapshots and pays the logrank fills they compute on
  demand, plus the engine; the second pays the engine alone. The engine
  column is the second pass, and the fills column the difference.

Each row first runs one untimed replication, which also solves the
boundaries the arms share, and then reports the best of REPEAT runs of
`--reps` replications, column by column.

Usage:
    python scripts/layer_probe.py [--reps N]
"""

import argparse
import pathlib
import sys
import time

from gatedgsd.config import build_designs, parse_config
from gatedgsd.engine import DesignKind, decide_design
from gatedgsd.simdata import generate_trial, schedule_analyses, snapshot_at

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"
COLUMNS = ("generate", "schedule", "futility", "fills", "engine")
REPEAT = 5


def replication(spec, arms, seed: int, rep: int):
    """Seconds spent in each of COLUMNS on replication `rep`."""
    clock = time.perf_counter
    t0 = clock()
    trial = generate_trial(spec, (seed, rep))
    t1 = clock()
    times = schedule_analyses(trial, spec)
    t2 = clock()
    futility = snapshot_at(trial, spec.stage1_cutoff, spec, with_hr=True)
    for d in arms:
        if d.futility is not None:
            futility.below(d.futility)
    t3 = clock()
    snaps = [snapshot_at(trial, t, spec) for t in times]
    for d in arms:
        decide_design(d, snaps, futility)
    t4 = clock()
    for d in arms:
        decide_design(d, snaps, futility)
    t5 = clock()
    return t1 - t0, t2 - t1, t3 - t2, (t4 - t3) - (t5 - t4), t5 - t4


def probe(spec, arms, seed: int, reps: int):
    """ms per replication for each of COLUMNS, the best of REPEAT runs."""
    replication(spec, arms, seed + 1, 0)
    best = [float("inf")] * len(COLUMNS)
    for _ in range(REPEAT):
        totals = [0.0] * len(COLUMNS)
        for rep in range(reps):
            totals = [a + b for a, b in zip(totals, replication(spec, arms, seed, rep))]
        best = [min(b, 1e3 * t / reps) for b, t in zip(best, totals)]
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=300, help="timed replications per run")
    args = ap.parse_args(argv)

    cfg = parse_config(CONFIGS / "setting2.yaml")
    arms = sorted(build_designs(cfg), key=lambda d: d.kind is DesignKind.GSD)
    print(f"{'pass':>5} {'reps':>5} "
          + " ".join(f"{c:>8}" for c in COLUMNS) + f" {'total':>8}")
    for name, spec in (("power", cfg.scenario), ("null", cfg.scenario.under_global_null())):
        ms = probe(spec, arms, cfg.seed, args.reps)
        print(f"{name:>5} {args.reps:>5} "
              + " ".join(f"{x:>8.3f}" for x in ms) + f" {sum(ms):>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
