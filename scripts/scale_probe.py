#!/usr/bin/env python3
"""Cost per replication as trials grow: ms and minor page faults.

Runs setting2's power and global-null passes, every design arm at one
thread, with the sample size and every event trigger scaled by each factor
x1, x4 and x16, and prints per replication the wall time and
the minor page faults of this process (`resource.getrusage`). Each row first
runs one untimed replication, which also solves the boundaries the arms
share. The script sets no allocator variable; the fault counts are those of
the allocator as the environment leaves it.

Usage:
    python scripts/scale_probe.py [--reps N]
"""

import argparse
import dataclasses
import pathlib
import resource
import sys
import time

from gatedgsd.config import build_designs, parse_config
from gatedgsd.harness import run_monte_carlo
from gatedgsd.simdata import AnalysisTrigger

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"
SCALES = (1, 4, 16)


def scaled(spec, factor: int):
    """The scenario with its sample size and event triggers times `factor`."""
    return dataclasses.replace(
        spec, name=f"{spec.name}-x{factor}", sample_size=spec.sample_size * factor,
        triggers=tuple(AnalysisTrigger(t.endpoint, t.events * factor) for t in spec.triggers))


def probe(spec, designs, reps: int, seed: int):
    """(ms, minor faults) per replication over `reps` replications, after one
    untimed replication."""
    run_monte_carlo(spec, designs, 1, seed + 1)
    before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    run_monte_carlo(spec, designs, reps, seed)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return 1e3 * wall / reps, faults / reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=200, help="timed replications per row")
    args = ap.parse_args(argv)

    cfg = parse_config(CONFIGS / "setting2.yaml")
    designs = build_designs(cfg)
    print(f"{'scale':>5} {'pass':>5} {'patients':>8} {'reps':>5} {'ms/rep':>8} {'faults/rep':>10}")
    for factor in SCALES:
        power = scaled(cfg.scenario, factor)
        for name, spec in (("power", power), ("null", power.under_global_null())):
            ms, faults = probe(spec, designs, args.reps, cfg.seed)
            print(f"{'x' + str(factor):>5} {name:>5} {spec.sample_size:>8} {args.reps:>5} "
                  f"{ms:>8.3f} {faults:>10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
