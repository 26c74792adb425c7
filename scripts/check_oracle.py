#!/usr/bin/env python3
"""Check that this source tree reproduces the committed behaviour oracle.

The oracle has two halves, both compared byte-for-byte:

- replay: `gatedgsd boundaries` for setting1-3 and `gatedgsd analyze` on
  table5_example (its stdout is the narrative) against the reference outputs
  in perfbench/reference/ (boundaries-settingN.csv, analysis.json,
  narrative.txt);
- Monte Carlo: `gatedgsd simulate` for setting1-3 (2000 replications each,
  the config seed, one worker per available CPU) against fwer.csv,
  power.csv and termination.csv in runs/settingN/.

Everything is written to a temporary directory; runs/ and perfbench/ are
only read. Prints one line per file, names every file that differs and
exits 1 if any does.

Usage:
    python scripts/check_oracle.py
"""

import contextlib
import io
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
REFERENCE = ROOT / "perfbench" / "reference"
SETTINGS = ("setting1", "setting2", "setting3")
TABLES = ("fwer.csv", "power.csv", "termination.csv")


def run(argv):
    rc = cli(argv)
    if rc != 0:
        raise SystemExit(f"gatedgsd {argv[0]} exited {rc}")


def replay_outputs(tmp: pathlib.Path) -> dict:
    """Reference file name -> bytes produced by this tree."""
    got = {}
    for name in SETTINGS:
        out = tmp / "boundaries" / name
        run(["boundaries", "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)])
        got[f"boundaries-{name}.csv"] = (out / "boundaries.csv").read_bytes()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run(["analyze", "--config", str(CONFIGS / "table5_example.yaml"),
             "--out", str(tmp / "replay")])
    got["analysis.json"] = (tmp / "replay" / "analysis.json").read_bytes()
    got["narrative.txt"] = stdout.getvalue().encode()
    return got


def compare(label: str, got: bytes, want: pathlib.Path, differing: list):
    same = got == want.read_bytes()
    print(f"  {label}: {'identical' if same else 'DIFFERS'}")
    if not same:
        differing.append(str(want.relative_to(ROOT)))


def main() -> int:
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    differing = []
    with tempfile.TemporaryDirectory(prefix="gatedgsd-oracle-") as tmp:
        tmp = pathlib.Path(tmp)
        print("replay: boundaries setting1-3, analyze table5_example")
        for name, data in replay_outputs(tmp).items():
            compare(name, data, REFERENCE / name, differing)
        for name in SETTINGS:
            out = tmp / name
            start = time.perf_counter()
            run(["simulate", "--config", str(CONFIGS / f"{name}.yaml"),
                 "--out", str(out), "--threads", str(threads)])
            print(f"{name}: simulated in {time.perf_counter() - start:.1f} s "
                  f"at --threads {threads}")
            for table in TABLES:
                compare(table, (out / table).read_bytes(), ORACLE / name / table, differing)
    if differing:
        print("oracle not reproduced: " + ", ".join(differing))
        return 1
    print("all oracle files reproduced byte-for-byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
