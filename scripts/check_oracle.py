#!/usr/bin/env python3
"""Check that this source tree reproduces the committed oracle tables.

Runs `gatedgsd simulate` for setting1-3 (2000 replications each, the config
seed) into a temporary directory with one worker per available CPU, then
compares fwer.csv, power.csv and termination.csv byte-for-byte with
runs/settingN/. Prints one line per table, names every table that differs
and exits 1 if any does. Nothing is written under runs/.

Usage:
    python scripts/check_oracle.py
"""

import os
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # check this checkout, not an installed copy

from gatedgsd.cli import main as cli  # noqa: E402

CONFIGS = ROOT / "src" / "gatedgsd" / "configs"
ORACLE = ROOT / "runs"
SETTINGS = ("setting1", "setting2", "setting3")
TABLES = ("fwer.csv", "power.csv", "termination.csv")


def main() -> int:
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    differing = []
    with tempfile.TemporaryDirectory(prefix="gatedgsd-oracle-") as tmp:
        for name in SETTINGS:
            out = pathlib.Path(tmp) / name
            start = time.perf_counter()
            rc = cli(["simulate", "--config", str(CONFIGS / f"{name}.yaml"),
                      "--out", str(out), "--threads", str(threads)])
            if rc != 0:
                print(f"{name}: simulate exited {rc}")
                return rc
            print(f"{name}: simulated in {time.perf_counter() - start:.1f} s "
                  f"at --threads {threads}")
            for table in TABLES:
                same = (out / table).read_bytes() == (ORACLE / name / table).read_bytes()
                print(f"  {table}: {'identical' if same else 'DIFFERS'}")
                if not same:
                    differing.append(f"runs/{name}/{table}")
    if differing:
        print("oracle tables not reproduced: " + ", ".join(differing))
        return 1
    print("all oracle tables reproduced byte-for-byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
