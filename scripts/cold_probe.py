#!/usr/bin/env python3
"""Fresh-process cost of the boundary solver, which the benchmark's warm
passes do not see.

For each bundled setting (setting1-3 by default), this starts K fresh
interpreters. Each one imports `gatedgsd.cli` (not timed), then times

- `gatedgsd boundaries` on the setting (`cli.main`), the first solves of the
  process, and reads `ru_maxrss` right after it;
- one 1024-node solve, `compute_boundaries(0.025, (0.5, 0.5001, 1.0))`,
  whose second look takes the grid cap;

and reports whether `numpy.polynomial` was imported by then. The script
prints, per setting, the medians over the K interpreters and how many of
them imported `numpy.polynomial`. Times are wall milliseconds; the
environment's BLAS thread setting is left as it is.

Usage:
    python scripts/cold_probe.py [--reps K] [--setting NAME ...]
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "src" / "gatedgsd" / "configs"
SETTINGS = ("setting1", "setting2", "setting3")

# Run in the fresh interpreter: argv[1] is the config, argv[2] the output
# directory; the last line printed is the JSON result.
CHILD = """
import contextlib, io, json, resource, sys, time
import gatedgsd.cli
from gatedgsd.boundaries import compute_boundaries
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = gatedgsd.cli.main(["boundaries", "--config", sys.argv[1], "--out", sys.argv[2]])
boundaries_ms = 1e3 * (time.perf_counter() - start)
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
compute_boundaries(0.025, (0.5, 0.5001, 1.0))
solve_ms = 1e3 * (time.perf_counter() - start)
print(json.dumps({"code": code, "boundaries_ms": boundaries_ms, "solve1024_ms": solve_ms,
                  "maxrss_mib": maxrss / 1024.0,
                  "numpy_polynomial": "numpy.polynomial" in sys.modules}))
"""


def run_child(config: pathlib.Path, out: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")]
                                        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD, str(config), str(out)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        raise SystemExit(f"boundaries on {config.name} exited {result['code']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=9, help="fresh interpreters per setting")
    ap.add_argument("--setting", action="append", choices=SETTINGS,
                    help="a bundled setting to probe, repeatable (default: all three)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    print(f"{'setting':>8} {'reps':>4} {'boundaries_ms':>13} {'solve1024_ms':>12} "
          f"{'maxrss_mib':>10} {'numpy.polynomial':>16}")
    with tempfile.TemporaryDirectory() as tmp:
        for setting in args.setting or SETTINGS:
            runs = [run_child(CONFIGS / f"{setting}.yaml", pathlib.Path(tmp) / f"{setting}-{i}")
                    for i in range(args.reps)]

            def median(key):
                return statistics.median(r[key] for r in runs)

            loaded = sum(r["numpy_polynomial"] for r in runs)
            print(f"{setting:>8} {args.reps:>4} {median('boundaries_ms'):>13.2f} "
                  f"{median('solve1024_ms'):>12.2f} {median('maxrss_mib'):>10.2f} "
                  f"{f'{loaded}/{args.reps}':>16}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
