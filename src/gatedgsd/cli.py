"""Command-line front end.

Subcommands:
  boundaries  - efficacy boundary tables for every design arm in a config
  thresholds  - futility hazard-ratio thresholds from (hr, events, gamma)
  simulate    - Monte Carlo run: power tables under the configured scenario
                plus FWER under its global-null counterpart
  analyze     - replay the decision logic on observed values from the config
  report      - merge summary tables from previous simulate runs

All file outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional

from .boundaries import cached_boundaries
from .config import ConfigError, RunConfig, build_designs, parse_config
from .engine import analyze_observed, render_narrative
from .futility import calibrate_threshold
from .harness import (atomic_write_text, rows_to_csv, run_monte_carlo, simulation_tables,
                      write_manifest, write_tables)
from .rules import COUNT, SEED, refuse
from .simdata import generate_trial

__all__ = ["main"]


def _emit(text: str, out_dir: Optional[str], filename: str):
    if out_dir:
        atomic_write_text(os.path.join(out_dir, filename), text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> RunConfig:
    if not args.config:
        raise SystemExit("error: --config is required for this subcommand")
    return parse_config(args.config)


def cmd_boundaries(args) -> int:
    config = _load_config(args)
    rows = []
    # Boundary tables depend only on the alpha split, not the weights, so the
    # first arm of each design kind stands for all of that kind.
    first_arms = {}
    for design in build_designs(config):
        first_arms.setdefault(design.kind, design)
    for design in first_arms.values():
        for h in sorted(design.initial_alphas, key=str):
            alpha = design.initial_alphas[h]
            if alpha <= 0.0:
                continue
            bounds = cached_boundaries(alpha, design.fractions[h])
            for k, (t, z, p) in enumerate(zip(bounds.fractions, bounds.z_bounds,
                                              bounds.nominal_p)):
                rows.append({
                    "design": design.kind.value,
                    "hypothesis": str(h),
                    "alpha": alpha,
                    "analysis": k + 1,
                    "fraction": t,
                    "z_bound": round(z, 6),
                    "nominal_p": round(p, 8),
                })
    _emit(rows_to_csv(rows), args.out, "boundaries.csv")
    return 0


def cmd_thresholds(args) -> int:
    rows = [{
        "true_hr": args.hr,
        "events": args.events,
        "gamma": args.gamma,
        "theta": round(calibrate_threshold(args.hr, args.events, args.gamma), 6),
    }]
    _emit(rows_to_csv(rows), args.out, "thresholds.csv")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    seed = args.seed if args.seed is not None else config.seed
    reps = args.reps if args.reps is not None else config.reps
    refuse((("--seed", SEED(seed)), ("--reps", COUNT(reps)), ("--threads", COUNT(args.threads))))
    out_dir = args.out or "."
    designs = build_designs(config)

    power_report = run_monte_carlo(config.scenario, designs, reps, seed,
                                   threads=args.threads)
    null_report = run_monte_carlo(config.scenario.under_global_null(), designs,
                                  reps, seed, threads=args.threads)
    paths = write_tables(simulation_tables(power_report, null_report), out_dir)

    if args.dump_trials:
        trial = generate_trial(config.scenario, (seed, 0))
        rows = trial.to_rows(config.scenario.stage1_cutoff)
        path = os.path.join(out_dir, "trials.csv")
        atomic_write_text(path, rows_to_csv(rows))
        paths["trials"] = path

    with open(args.config) as f:
        config_echo = {"path": os.path.relpath(args.config), "text": f.read()}
    manifest = write_manifest(out_dir, config_echo, seed, reps, paths,
                              extra={"setting": config.name})
    print(f"wrote {', '.join(sorted(os.path.basename(p) for p in paths.values()))} "
          f"and {os.path.basename(manifest)} to {out_dir}")
    return 0


def cmd_analyze(args) -> int:
    config = _load_config(args)
    if config.observed is None:
        raise SystemExit("error: config has no `observed` section to analyze")
    designs = {d.kind.value: d for d in build_designs(config)}
    outputs = {}
    for slug, observed in config.observed.items():
        design = designs[slug]
        trace = analyze_observed(design, observed)
        narrative = render_narrative(trace)
        outputs[slug] = {"trace": trace.to_dict(), "narrative": narrative}
        print(f"--- {slug} ---")
        print(narrative)
    if args.out:
        text = json.dumps(outputs, indent=2, sort_keys=True, allow_nan=False) + "\n"
        atomic_write_text(os.path.join(args.out, "analysis.json"), text)
    return 0


def cmd_report(args) -> int:
    if not args.runs:
        raise SystemExit("error: report needs at least one simulate output directory")
    merged = {"fwer": [], "power": [], "termination": []}
    for run_dir in args.runs:
        for name in merged:
            path = os.path.join(run_dir, f"{name}.csv")
            if not os.path.exists(path):
                raise SystemExit(f"error: {path} not found")
            with open(path, newline="") as f:
                merged[name].extend(csv.DictReader(f))
    out_dir = args.out or "."
    write_tables(merged, out_dir)
    print(f"merged {len(args.runs)} runs into {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatedgsd",
        description="Design evaluation for gated group sequential trials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a YAML run configuration")
        p.add_argument("--out", help="output directory (default: stdout/cwd)")

    p = sub.add_parser("boundaries", help="emit efficacy boundary tables")
    common(p)
    p.set_defaults(func=cmd_boundaries)

    p = sub.add_parser("thresholds", help="futility threshold calibration")
    p.add_argument("--hr", type=float, required=True, help="assumed true hazard ratio")
    p.add_argument("--events", type=int, required=True, help="expected stage-1 events")
    p.add_argument("--gamma", type=float, default=0.05,
                   help="probability of failing the gate under the alternative")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", help="Monte Carlo FWER/power/termination run")
    common(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--reps", type=int, help="override the replication count")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--dump-trials", action="store_true",
                   help="also dump the first replication's patients to trials.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="replay observed values from the config")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="merge summary tables from simulate runs")
    p.add_argument("runs", nargs="*", help="simulate output directories")
    p.add_argument("--out", help="output directory (default: cwd)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
