"""One benchmark process: set-up probe, timed workload, or oracle check.

Run from the root of a source checkout; `run.py` starts this file in fresh
interpreters. It imports `gatedgsd` from the checkout's `src/` and only
through the package's public entry points (plus the tracer's wrappers).

  workload.py setup                 time import + parse_config + build_designs
  workload.py run --workload W ...  run W for --seconds, print one JSON line
  workload.py oracle --out DIR      `gatedgsd simulate` setting2 at its
                                    configured seed and reps, compared
                                    byte-for-byte with runs/setting2/*.csv

The design-replay references in `reference/` are the outputs of
`gatedgsd boundaries --config configs/setting{1,2,3}.yaml` and
`gatedgsd analyze --config configs/table5_example.yaml` (its stdout is
`narrative.txt`) at the commit that added this benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join("src", "gatedgsd", "configs")
MC_CONFIG = os.path.join(CONFIGS, "setting2.yaml")
REPLAY_SETTINGS = ("setting1", "setting2", "setting3")
REPLAY_CONFIG = os.path.join(CONFIGS, "table5_example.yaml")
ORACLE_DIR = os.path.join("runs", "setting2")
ORACLE_TABLES = ("fwer.csv", "power.csv", "termination.csv")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("power-s2", "null-s2", "design-replay")

# Replications per run_monte_carlo call. Each call is one timed batch; its
# seed is derived from the workload seed and the batch index.
BATCH_REPS = 100
MIN_BATCHES = 3
MIN_PASSES = 10


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def batch_seed(seed: int, j: int) -> int:
    return seed * 1_000_000 + j


def cpu_s() -> float:
    """CPU seconds of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_gatedgsd():
    src = os.path.abspath("src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import gatedgsd

    if not os.path.abspath(gatedgsd.__file__).startswith(src + os.sep):
        raise SystemExit(f"gatedgsd imported from {gatedgsd.__file__}, not {src}")
    return gatedgsd


# -- set-up probe ------------------------------------------------------------


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import_gatedgsd()
    t1 = time.perf_counter()
    from gatedgsd.config import build_designs, parse_config

    config = parse_config(MC_CONFIG)
    t2 = time.perf_counter()
    designs = build_designs(config)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "parse_ms": (t2 - t1) * 1e3,
            "build_designs_ms": (t3 - t2) * 1e3, "arms": len(designs)}


# -- oracle ------------------------------------------------------------------


def cmd_oracle(args) -> dict:
    import_gatedgsd()
    from gatedgsd.cli import main as cli

    t0 = time.perf_counter()
    rc = cli(["simulate", "--config", MC_CONFIG, "--out", args.out,
              "--threads", str(nproc())])
    wall = time.perf_counter() - t0
    mismatched = []
    for name in ORACLE_TABLES:
        produced = os.path.join(args.out, name)
        if not os.path.exists(produced) or read_bytes(produced) != read_bytes(
                os.path.join(ORACLE_DIR, name)):
            mismatched.append(name)
    return {"ok": rc == 0 and not mismatched, "exit_code": rc,
            "mismatched": mismatched, "wall_s": wall, "threads": nproc()}


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# -- Monte Carlo workloads -----------------------------------------------------


def digest(tables) -> str:
    return hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()


def table_problems(tables, labels, reps: int) -> list:
    """Structural checks that hold for any correct batch of `reps` reps."""
    problems = []
    for name in ("fwer", "power"):
        arms = sorted(row["arm"] for row in tables[name])
        if arms != sorted(labels):
            problems.append(f"{name}: arms {arms}")
        if any(row["reps"] != reps for row in tables[name]):
            problems.append(f"{name}: reps differ from {reps}")
    for row in tables["fwer"]:
        if not 0.0 <= row["fwer"] <= 1.0:
            problems.append(f"fwer {row['arm']}: {row['fwer']}")
    for row in tables["power"]:
        if not (0.0 <= row["power_s"] <= 1.0 and 0.0 <= row["power_sorf"] <= 1.0):
            problems.append(f"power {row['arm']}: {row['power_s']} {row['power_sorf']}")
    counts = {}
    for row in tables["termination"]:
        counts[row["arm"]] = counts.get(row["arm"], 0) + row["count"]
    if any(c != reps for c in counts.values()):
        problems.append(f"termination counts {counts}")
    return problems


class MonteCarlo:
    """Timed run_monte_carlo batches on setting2 (power or global null)."""

    def __init__(self, null: bool):
        from gatedgsd.config import build_designs, parse_config
        from gatedgsd.harness import run_monte_carlo, summarize

        config = parse_config(MC_CONFIG)
        self.designs = build_designs(config)
        self.labels = [d.label for d in self.designs]
        self.scenario = config.scenario.under_global_null() if null else config.scenario
        self._run, self._summarize = run_monte_carlo, summarize

    def tables(self, seed: int, threads: int):
        report = self._run(self.scenario, self.designs, BATCH_REPS, seed, threads=threads)
        return self._summarize([report])

    def batch(self, seed: int, threads: int) -> dict:
        """One timed call; failures are counted, never raised."""
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            tables = self.tables(seed, threads)
            error = None
        except Exception as exc:  # the run aborted: all its reps failed
            tables, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        problems = [error] if error else table_problems(tables, self.labels, BATCH_REPS)
        return {"wall_s": wall, "cpu_s": cpu, "problems": problems,
                "digest": digest(tables) if tables else None}


def traced_if(kind: str, tracer, fn):
    """Call fn, with the tracer's wrappers installed for a traced batch."""
    if kind != "traced":
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def run_mc(args, tracer) -> dict:
    mc = MonteCarlo(null=args.workload == "null-s2")
    first = batch_seed(args.seed, 0)
    # Untimed reruns of batch 0, in-process and through the fork pool: the
    # timed batch 0 must match both (reruns are deterministic and results do
    # not depend on --threads). They also fill the boundary memo before
    # timing starts, so pool workers fork with it warm.
    reference = mc.batch(first, 1)
    if tracer is not None:
        tracer.uninstall()  # a pool cannot pickle the wrappers
    pooled = mc.batch(first, nproc())
    untimed = reference["problems"] + pooled["problems"]
    if pooled["digest"] != reference["digest"]:
        untimed.append(f"batch 0 at threads={nproc()} does not match threads=1")

    # A traced run cycles traced, untraced and pool (threads=nproc) calls
    # of one seed, for the tracing overhead and the pool's efficiency.
    kinds = ["plain"] if tracer is None else ["traced", "plain", "pool"]
    batches = []
    deadline = time.perf_counter() + args.seconds
    j = 0
    while j < MIN_BATCHES or time.perf_counter() < deadline:
        seed = batch_seed(args.seed, j)
        # Tracing and --threads must not change a batch's result.
        expect = reference["digest"] if j == 0 else None
        for kind in kinds:
            b = traced_if(kind, tracer, lambda: mc.batch(
                seed, nproc() if kind == "pool" else 1))
            b["kind"] = kind
            if b["digest"] is not None:
                if expect is None:
                    expect = b["digest"]
                elif b["digest"] != expect:
                    b["problems"].append(f"batch {j} ({kind}) digest {b['digest'][:12]} "
                                         f"!= {expect[:12]}")
            if j == 0:
                b["problems"] += untimed
            batches.append(b)
        j += 1
    return {"op": "rep", "ops_per_batch": BATCH_REPS, "batches": batches}


# -- design-replay -------------------------------------------------------------


class DesignReplay:
    """One pass: boundaries for setting1-3, then analyze table5_example."""

    def __init__(self, out_dir: str):
        from gatedgsd.boundaries import cached_boundaries
        from gatedgsd.cli import main as cli

        self.out_dir = out_dir
        self._cli, self._memo = cli, cached_boundaries
        self.reference = {name: read_bytes(os.path.join(REFERENCE_DIR, name))
                          for name in self.output_names()}

    @staticmethod
    def output_names():
        return [f"boundaries-{s}.csv" for s in REPLAY_SETTINGS] + [
            "analysis.json", "narrative.txt"]

    def run_pass(self) -> dict:
        self._memo.cache_clear()  # as in a fresh invocation
        stdout = io.StringIO()
        codes = []
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            for s in REPLAY_SETTINGS:
                codes.append(self._cli([
                    "boundaries", "--config", os.path.join(CONFIGS, f"{s}.yaml"),
                    "--out", os.path.join(self.out_dir, s)]))
            with contextlib.redirect_stdout(stdout):
                codes.append(self._cli(["analyze", "--config", REPLAY_CONFIG,
                                        "--out", os.path.join(self.out_dir, "replay")]))
            error = None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        hits = self._memo.cache_info().hits
        problems = [error] if error else self.problems(codes, stdout.getvalue())
        return {"wall_s": wall, "cpu_s": cpu, "problems": problems,
                "memo_hits": hits}

    def problems(self, codes, narrative: str) -> list:
        """Compare with the references; outputs are removed once read, so a
        pass that writes nothing cannot pass on an earlier pass's files."""
        if any(codes):
            return [f"exit codes {codes}"]
        produced = {f"boundaries-{s}.csv": os.path.join(self.out_dir, s, "boundaries.csv")
                    for s in REPLAY_SETTINGS}
        produced["analysis.json"] = os.path.join(self.out_dir, "replay", "analysis.json")
        got = {"narrative.txt": narrative.encode()}
        for name, path in produced.items():
            if os.path.exists(path):
                got[name] = read_bytes(path)
                os.unlink(path)
        return [f"{name} differs from reference" for name in self.output_names()
                if got.get(name) != self.reference[name]]


def run_replay(args, tracer) -> dict:
    replay = DesignReplay(os.path.join(args.scratch, "replay"))
    if tracer is not None:
        tracer.uninstall()
    replay.run_pass()  # untimed warm-up: imports, first file writes
    kinds = ["plain"] if tracer is None else ["traced", "plain"]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES * len(kinds) or time.perf_counter() < deadline:
        for kind in kinds:
            p = traced_if(kind, tracer, replay.run_pass)
            p["kind"] = kind
            passes.append(p)
    return {"op": "pass", "ops_per_batch": 1, "batches": passes}


# -- per-layer metrics from a traced run ------------------------------------------


def layer_metrics(workload: str, tracer, result: dict) -> dict:
    from tracer import MC_LAYERS, REPLAY_LAYERS

    agg = tracer.aggregate()
    c = tracer.counters
    expected = REPLAY_LAYERS if workload == "design-replay" else MC_LAYERS
    silent = [name for name in expected if name not in agg]
    if silent:
        raise SystemExit(f"traced layers never fired on {workload}: {silent}")

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    def per(x, n):
        return x / n if n else 0.0

    batches = result["batches"]
    m = {}

    def rate(kind):
        walls = [b["wall_s"] for b in batches if b["kind"] == kind]
        return result["ops_per_batch"] / statistics.median(walls)

    m["trace.overhead_frac"] = 1.0 - rate("traced") / rate("plain")
    m["harness.mp.efficiency"] = 0.0
    if any(b["kind"] == "pool" for b in batches):
        single = [b["wall_s"] for b in batches if b["kind"] == "plain"]
        pool = [b["wall_s"] for b in batches if b["kind"] == "pool"]
        m["harness.mp.efficiency"] = statistics.median(
            s / (nproc() * p) for s, p in zip(single, pool))

    reps = c["chunk.reps"]
    design_calls = sum(c[f"design.{k}.calls"] for k in ("gsd", "ad", "ggsd"))
    gated_calls = c["design.ad.calls"] + c["design.ggsd.calls"]
    engine_self = sum(get(f"engine.run_design.{k}", "self_s") for k in ("gsd", "ad", "ggsd"))
    m["harness.self_ms_per_rep"] = per(get("harness.chunk", "self_s") * 1e3, reps)
    m["simdata.generate.ms_per_rep"] = per(get("simdata.generate", "self_s") * 1e3, reps)
    m["simdata.schedule.ms_per_rep"] = per(get("simdata.schedule", "self_s") * 1e3, reps)
    m["simdata.schedule.failed"] = float(c["schedule.failed"])
    m["simdata.snapshot.ms_per_rep"] = per(get("simdata.snapshot", "self_s") * 1e3, reps)
    m["simdata.snapshot.calls_per_rep"] = per(c["snapshot.calls"], reps)
    m["simdata.snapshot.slots_per_rep"] = per(c["snapshot.slots"], reps)
    m["simdata.snapshot.zero_event_slots"] = per(c["snapshot.zero_event_slots"], reps)
    m["simdata.futility_snapshot.ms_per_rep"] = per(
        get("simdata.futility_snapshot", "self_s") * 1e3, reps)
    for k in ("gsd", "ad", "ggsd"):
        m[f"engine.{k}.ms_per_call"] = per(
            get(f"engine.run_design.{k}", "self_s") * 1e3, c[f"design.{k}.calls"])
    m["engine.ms_per_rep"] = per(engine_self * 1e3, reps)
    m["engine.analyses_per_call"] = per(c["design.analyses"], design_calls)
    m["engine.futility_stop_ratio"] = per(c["selection.stop_futility"], design_calls)
    for slug, sel in (("both", "continue_both"), ("sub_only", "continue_sub_only"),
                      ("full_only", "continue_full_only"), ("stop", "stop_futility")):
        m[f"engine.scenario.{slug}"] = per(c[f"selection.{sel}"], gated_calls)
    m["engine.clamped_p"] = per(c["design.clamped_p"], reps)
    m["engine.analyze_observed.ms_per_call"] = per(
        get("engine.analyze_observed", "self_s") * 1e3, get("engine.analyze_observed", "calls"))
    m["engine.render.ms_per_call"] = per(
        get("engine.render", "total_s") * 1e3, get("cli.analyze", "calls"))
    m["cli.boundaries.ms_per_setting"] = per(
        get("cli.boundaries", "total_s") * 1e3, get("cli.boundaries", "calls"))
    solves = get("boundaries.compute", "calls")
    # Median: a process's first solve also pays BLAS start-up (up to ~0.8 s).
    m["boundaries.solve_ms"] = statistics.median(tracer.durations("boundaries.compute")) * 1e3
    if workload == "design-replay":
        traced = [b for b in batches if b["kind"] == "traced"]
        m["boundaries.solves"] = per(solves, len(traced))
        m["boundaries.cache_hits_per_rep"] = per(sum(b["memo_hits"] for b in traced), len(traced))
    else:
        m["boundaries.solves"] = solves
        m["boundaries.cache_hits_per_rep"] = per(c["boundaries.cache_hits"], reps)
    return m


def cmd_run(args) -> dict:
    gatedgsd = import_gatedgsd()
    import numpy
    import scipy

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        # Installed before the config is built, so work done there shows;
        # each runner uninstalls it where its timed loop begins.
        tracer.install()
    runner = run_replay if args.workload == "design-replay" else run_mc
    try:
        result = runner(args, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = peak_rss_mb()
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "gatedgsd": gatedgsd.__version__}
    if tracer is not None:
        result["layers"] = layer_metrics(args.workload, tracer, result)
        tracer.write(os.path.join(args.scratch, f"trace-{args.workload}.json"))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True, help="directory for run outputs")
    p = sub.add_parser("oracle")
    p.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    fn = {"setup": cmd_setup, "run": cmd_run, "oracle": cmd_oracle}[args.cmd]
    print(json.dumps(fn(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
