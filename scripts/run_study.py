#!/usr/bin/env python3
"""Reproduce the full simulation study: all three settings plus the replay.

Runs the Monte Carlo evaluation (FWER, power, termination) for every design
arm in each bundled setting, replays the bundled observed-data example, and
merges the per-setting tables into one summary directory. Output goes to
study/ by default (one directory per setting, plus replay/ and summary/);
the committed oracle tables in runs/ are never the default target.

Usage:
    python scripts/run_study.py [--reps N] [--threads K] [--out DIR]
"""

import argparse
import pathlib
import sys

from gatedgsd.cli import main as cli

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"
SETTINGS = ("setting1", "setting2", "setting3")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=None, help="override replication count")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="study", help="output root directory")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    for name in SETTINGS:
        argv = ["simulate", "--config", str(CONFIGS / f"{name}.yaml"),
                "--out", str(out / name), "--threads", str(args.threads)]
        if args.reps:
            argv += ["--reps", str(args.reps)]
        print(f"== {name}")
        rc = cli(argv)
        if rc != 0:
            return rc

    print("== observed-data replay")
    rc = cli(["analyze", "--config", str(CONFIGS / "table5_example.yaml"),
              "--out", str(out / "replay")])
    if rc != 0:
        return rc

    print("== merged summary")
    return cli(["report", "--out", str(out / "summary")]
               + [str(out / name) for name in SETTINGS])


if __name__ == "__main__":
    sys.exit(main())
