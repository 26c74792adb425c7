#!/usr/bin/env python3
"""Write the per-replication decision reference.

For settings 1-3, the power pass (the configured truth) and the null pass
(its global-null counterpart), and replications 0..99 at the config seed,
this records every design arm's confirmed hypotheses and termination bin,
and a digest of the replication's statistics. The Monte Carlo tables in
runs/ only show aggregates; this file pins each replication, so a change
that moves one decision and another that moves it back cannot cancel out,
and the digest pins the statistics bit for bit, not only the decisions.

File format (text, one line per replication):

    arms <setting> <label> <label> ...
    <setting> <pass> <rep> <token> <token> ... <digest>

with one token per arm, in the order of that setting's `arms` line. A token
is the hex digit of the confirmed-hypothesis bitmask (bit i is HYPOTHESES[i]:
OS(F), PFS(F), OS(S), PFS(S)) followed by the termination bin: x for the
futility stop, 1 for IA1, 2 for IA2, 3 for FA. The digest is the first 12
hex digits of a sha256 over each analysis snapshot's calendar time, event
counts, z and p, the futility snapshot's two hazard ratios, and every
arm's rendered test rows (label, z, boundary z, boundary p, alpha, crossed,
confirmed), each analysis's alpha snapshot and the order of its newly
rejected hypotheses, and the trace's warnings, floats as `float.hex`.

`tests/test_decision_reference.py` recomputes the file and names the first
differing decision, or the digest column when only statistics moved.
Rewrite it only for an intended change of behaviour.

Usage:
    python scripts/decision_reference.py
"""

import hashlib
import pathlib
import sys
from typing import Iterator, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # this checkout, not an installed copy

from gatedgsd.config import build_designs, parse_config  # noqa: E402
from gatedgsd.engine import run_design  # noqa: E402
from gatedgsd.harness import replication_inputs  # noqa: E402
from gatedgsd.multiplicity import HYPOTHESES  # noqa: E402

CONFIGS = ROOT / "src" / "gatedgsd" / "configs"
REFERENCE = ROOT / "tests" / "data" / "decision_reference.txt"
SETTINGS = ("setting1", "setting2", "setting3")
N_REP = 100
_BIN = {"futility": "x", 0: "1", 1: "2", 2: "3"}
_BIT = {str(h): 1 << i for i, h in enumerate(HYPOTHESES)}


def token(trace) -> str:
    mask = sum(_BIT[label] for label in trace.confirmed())
    term = "futility" if trace.termination_reason == "futility" else trace.termination_index
    return f"{mask:x}{_BIN[term]}"


def decision_token(decision) -> str:
    """The token of an `engine.Decision`, what the Monte Carlo computes
    instead of a trace: its confirmed mask and the analyses it ran."""
    return f"{decision.confirmed:x}{len(decision.analyses) or 'x'}"


def passes(config):
    """(pass name, scenario) of the two passes recorded per setting."""
    return (("power", config.scenario), ("null", config.scenario.under_global_null()))


def _hex(x: Optional[float]) -> str:
    return "None" if x is None else float(x).hex()


def digest(snaps, fsnap, traces) -> str:
    """First 12 hex digits of a sha256 over one replication's statistics."""
    parts = []
    for snap in snaps:
        parts.append(_hex(snap.calendar_time))
        parts.extend(str(n) for n in snap.events)
        parts.extend(_hex(x) for x in snap.z + snap.p)
    parts.extend(_hex(hr) for hr in (fsnap.hr_full, fsnap.hr_sub))
    for trace in traces:
        for rec in trace.analyses:
            for t in rec.tests:
                parts.extend((t.target_label, t.z.hex(), t.boundary_z.hex(), t.boundary_p.hex(),
                              t.alpha.hex(), str(t.crossed), str(t.confirmed)))
            parts.extend(f"{label}={a.hex()}" for label, a in rec.alpha_snapshot.items())
            parts.append("newly:" + ",".join(rec.newly_rejected))
        parts.extend(trace.warnings)
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()[:12]


def reference_lines() -> Iterator[str]:
    """The reference file's lines, computed by this source tree."""
    for name in SETTINGS:
        config = parse_config(CONFIGS / f"{name}.yaml")
        designs = build_designs(config)
        yield " ".join(["arms", name] + [d.label for d in designs])
        for pass_name, scenario in passes(config):
            for rep in range(N_REP):
                snaps, fsnap = replication_inputs(scenario, config.seed, rep)
                traces = [run_design(d, snaps, fsnap) for d in designs]
                tokens = [token(t) for t in traces] + [digest(snaps, fsnap, traces)]
                yield " ".join([name, pass_name, str(rep)] + tokens)


def first_difference(expected: List[str], actual: List[str]
                     ) -> Optional[Tuple[str, str, str, str, str, str]]:
    """(setting, pass, replication, arm, expected token, actual token) of the
    first differing decision, or None when the two agree. The last column of
    a replication line is named `digest`."""
    arms = {}
    for want, got in zip(expected, actual):
        w, g = want.split(), got.split()
        if w[0] == "arms":
            if w != g:
                return (w[1], "-", "-", "arm list", " ".join(w[2:]), " ".join(g[2:]))
            arms[w[1]] = w[2:] + ["digest"]
            continue
        if w[:3] != g[:3] or len(w) != len(g):
            return (w[0], w[1], w[2], "line", want, got)
        for label, a, b in zip(arms[w[0]], w[3:], g[3:]):
            if a != b:
                return (w[0], w[1], w[2], label, a, b)
    if len(expected) != len(actual):
        return ("-", "-", "-", "line count", str(len(expected)), str(len(actual)))
    return None


def main() -> int:
    lines = list(reference_lines())
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
