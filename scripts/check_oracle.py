#!/usr/bin/env python3
"""Check that this source tree reproduces the replay half of the behaviour
oracle.

`gatedgsd boundaries` for setting1-3 and `gatedgsd analyze` on
table5_example (its stdout is the narrative) are compared byte-for-byte with
the reference outputs in perfbench/reference/ (boundaries-settingN.csv,
analysis.json, narrative.txt). The Monte Carlo half, runs/settingN/'s
fwer.csv, power.csv and termination.csv, is checked by the tier-1 suite
(`tests/test_acceptance.py::test_c2_reproduces_committed_runs`), which
renders the acceptance fixture's 2000-replication passes.

Everything is written to a temporary directory; perfbench/ is only read.
Prints one line per file, names every file that differs and exits 1 if any
does.

Usage:
    python scripts/check_oracle.py
"""

import contextlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # check this checkout, not an installed copy

from gatedgsd.cli import main as cli  # noqa: E402

CONFIGS = ROOT / "src" / "gatedgsd" / "configs"
REFERENCE = ROOT / "perfbench" / "reference"
SETTINGS = ("setting1", "setting2", "setting3")


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
    differing = []
    with tempfile.TemporaryDirectory(prefix="gatedgsd-oracle-") as tmp:
        print("replay: boundaries setting1-3, analyze table5_example")
        for name, data in replay_outputs(pathlib.Path(tmp)).items():
            compare(name, data, REFERENCE / name, differing)
    if differing:
        print("oracle not reproduced: " + ", ".join(differing))
        return 1
    print("all replay files reproduced byte-for-byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
