"""gatedgsd benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload power-s2 --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json and rationale.json for why each exists):
  power-s2       run_monte_carlo on setting2, 17 arms, threads=1
  null-s2        the same call under the global null (the FWER pass)
  design-replay  cold `boundaries` for setting1-3 + `analyze` table5_example

Each run, in fresh processes:
  1. once per source tree, untimed: `gatedgsd simulate` setting2 must
     reproduce runs/setting2/{fwer,power,termination}.csv byte-for-byte
     (the verdict is kept in .perfbench/ keyed by a hash of src/ and runs/);
  2. set-up probes: import gatedgsd + parse_config + build_designs, each in
     a fresh interpreter; setup_s is their median;
  3. the workload for --seconds in a fresh interpreter, checking outputs.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
layer entry points (tracer.py) and prints the per-layer metrics. Human-
readable lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workload.py")
SCRATCH = ".perfbench"
SETUP_PROBES = 5
ORACLE_TIMEOUT_S = 600
PROBE_TIMEOUT_S = 60
RUN_SLACK_S = 100


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; exit non-zero, print none."""


def run_child(args, timeout: float) -> dict:
    """Run workload.py in a fresh interpreter and parse its JSON line.

    The child gets its own session so that on timeout the whole group,
    pool workers included, is killed; it is always waited for.
    """
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload.py {args[0]} timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"workload.py {args[0]} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tree_hash(*roots: str) -> str:
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def oracle_verdict(source_hash: str) -> dict:
    """Untimed byte-for-byte check of the committed setting2 tables."""
    stamp = os.path.join(SCRATCH, f"oracle-{source_hash[:16]}.json")
    if os.path.exists(stamp):
        with open(stamp) as f:
            return json.load(f)
    verdict = run_child(["oracle", "--out", os.path.join(SCRATCH, "oracle")],
                        ORACLE_TIMEOUT_S)
    tmp = stamp + ".tmp"
    with open(tmp, "w") as f:
        json.dump(verdict, f)
    os.replace(tmp, stamp)
    return verdict


def machine(source_hash: str, versions: dict) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, **versions,
            "git_sha": sha, "src_sha256": source_hash}


def end_to_end(detail: dict, setups: list) -> dict:
    timed = [b for b in detail["batches"] if b["kind"] == "plain"]
    n = detail["ops_per_batch"]
    return {
        "ops_per_s": (n / statistics.median(b["wall_s"] for b in timed), "op/s"),
        "cpu_ms_per_op": (statistics.median(b["cpu_s"] for b in timed) * 1e3 / n, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (detail["peak_rss_mb"], "MiB"),
    }


def setup_layers(setups: list) -> dict:
    return {
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "config.parse_ms": (statistics.median(s["parse_ms"] for s in setups), "ms"),
        "config.build_designs_ms": (
            statistics.median(s["build_designs_ms"] for s in setups), "ms"),
    }


def layer_units() -> dict:
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gatedgsd benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return bench(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


def bench(args) -> int:
    for need in ("BENCHMARK.json", os.path.join("src", "gatedgsd", "__init__.py"),
                 os.path.join("runs", "setting2", "power.csv")):
        if not os.path.exists(need):
            raise BenchError(f"{need} not found: run from the root of a gatedgsd checkout")
    os.makedirs(SCRATCH, exist_ok=True)
    source_hash = tree_hash("src", "runs")
    oracle = oracle_verdict(source_hash)
    setups = [run_child(["setup"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
    detail = run_child(
        ["run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch", SCRATCH], args.seconds + RUN_SLACK_S)

    batches = detail["batches"]
    attempted = len(batches) * detail["ops_per_batch"]
    failed = sum(detail["ops_per_batch"] for b in batches if b["problems"])
    problems = [p for b in batches for p in b["problems"]]
    if not oracle["ok"]:
        problems.append(f"oracle: runs/setting2 not reproduced: {oracle}")
        failed = attempted

    if args.trace:
        units = layer_units()
        metrics = {k: (v, units[k]) for k, v in detail["layers"].items()}
        metrics.update(setup_layers(setups))
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchError(f"per-layer metrics not produced: {missing}")
    else:
        metrics = end_to_end(detail, setups)

    info = machine(source_hash, detail["versions"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    op = {"rep": "replication through all 17 arms", "pass": "cold design pass"}[detail["op"]]
    print(f"op = one {op}; {len(batches)} timed calls of {detail['ops_per_batch']} op")
    if detail["op"] == "rep" and not args.trace:
        print(f"reps_per_s = {metrics['ops_per_s'][0]:.4f} rep/s")
        print(f"cpu_ms_per_rep = {metrics['cpu_ms_per_op'][0]:.4f} ms")
    elif not args.trace:
        print(f"design_passes_per_s = {metrics['ops_per_s'][0]:.4f} pass/s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    digests = [b.get("digest") for b in batches if b["kind"] == "plain"]
    if detail["op"] == "rep":
        print("digests " + " ".join((d or "-")[:16] for d in digests))
    print(f"oracle runs/setting2 reproduced: {oracle['ok']} "
          f"({oracle['wall_s']:.1f} s at threads={oracle['threads']}, untimed)")
    for p in problems[:20]:
        print(f"check failed: {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
