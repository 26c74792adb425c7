"""End-to-end acceptance gate.

Six criteria: boundary-engine accuracy and speed; FWER control under the
global null; power benchmarks and orderings; the bundled observed-data
replay; the cross-cutting property suite; and early-termination behavior.

Benchmark constants are the published simulation-study values this engine
is evaluated against. Known divergence: the simulator draws PFS and OS as
independent marginals by design, while the benchmark power values require
positively correlated endpoints; the affected power checks fail honestly
rather than being loosened.
"""

import csv
import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from gatedgsd.boundaries import (
    compute_boundaries,
    crossing_probability,
    crossing_probability_mvn,
)
from gatedgsd.cli import main as cli_main
from gatedgsd.combine import StageWeights, inverse_normal
from gatedgsd.config import build_designs, parse_config
from gatedgsd.engine import DesignKind, run_design
from gatedgsd.futility import Selection, calibrate_threshold
from gatedgsd.harness import rows_to_csv, run_monte_carlo, simulation_tables
from gatedgsd.multiplicity import Population, hochberg_intersection
from gatedgsd.simdata import generate_trial, logrank_test, schedule_analyses, snapshot_at

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "src" / "gatedgsd" / "configs"
# The committed Monte Carlo oracle: `gatedgsd simulate` of each setting at the
# config seed, 2000 replications.
RUNS_DIR = ROOT / "runs"
SETTINGS = ("setting1", "setting2", "setting3")
REPS = 2000
HEADLINE = "0.7"  # the (sqrt(0.7), sqrt(0.3)) weight set
W1_GE_W2 = ("0.5", "0.5/0.7", "0.6", "0.7", "0.8")
ALL_SETS = W1_GE_W2 + ("0.2", "0.3", "event_driven")

BENCH_POWER_GSD = {"setting1": 0.884, "setting2": 0.914, "setting3": 0.914}
BENCH_POWER_GGSD = {"setting1": 0.923, "setting2": 0.950, "setting3": 0.926}
BENCH_FWER_GGSD = (0.009, 0.014)
POWER_TOL = 0.04
FWER_TOL = 0.010

INDEPENDENCE_NOTE = (
    "known divergence: this value matches the benchmark only under "
    "positively correlated PFS/OS, which the simulator deliberately does "
    "not model (independent marginals)"
)


@pytest.fixture(scope="module")
def mc_runs():
    """One power pass and one global-null pass per setting, 2000 reps each.

    A global-null pass whose spec (name aside), arms and seed equal an
    earlier setting's is that pass: it is computed once and relabelled.
    The passes run on two workers where the machine has two, so
    `test_c2_reproduces_committed_runs` also checks that the tables do not
    depend on the worker count."""
    threads = min(2, os.cpu_count() or 1)
    out, null_passes = {}, []
    for name in SETTINGS:
        cfg = parse_config(CONFIG_DIR / f"{name}.yaml")
        designs = build_designs(cfg)
        start = time.perf_counter()
        power = run_monte_carlo(cfg.scenario, designs, REPS, cfg.seed, threads=threads)
        spec = cfg.scenario.under_global_null()
        key = (dataclasses.replace(spec, name=""), designs, cfg.seed)
        null = next((dataclasses.replace(report, setting=spec.name)
                     for k, report in null_passes if k == key), None)
        if null is None:
            null = run_monte_carlo(spec, designs, REPS, cfg.seed, threads=threads)
            null_passes.append((key, null))
        out[name] = {"power": power, "null": null,
                     "elapsed": time.perf_counter() - start}
    return out


def rate(report, label, criterion):
    return report.rates()[label][criterion][0]


# -- criterion 1: boundary engine -------------------------------------------


def test_c1_single_look():
    b = compute_boundaries(0.025, (1.0,))
    assert b.z_bounds[0] == pytest.approx(1.95996, abs=1e-4)


def test_c1_two_equal_looks_vs_oracle():
    # frozen output of an independently coded fine-grid integration oracle
    b = compute_boundaries(0.025, (0.5, 1.0))
    assert b.z_bounds[0] == pytest.approx(2.9625881, abs=2e-3)
    assert b.z_bounds[1] == pytest.approx(1.9685956, abs=2e-3)
    # third route: library multivariate-normal integration
    assert crossing_probability_mvn(b) == pytest.approx(0.025, abs=1e-6)


def test_c1_round_trip_50_designs_under_1s():
    rng = np.random.default_rng(17)
    start = time.perf_counter()
    checked = 0
    while checked < 50:
        k = int(rng.integers(1, 6))
        fr = np.sort(rng.uniform(0.15, 0.995, size=k))
        fr = tuple(np.append(fr[:-1], 1.0))
        if any(b - a < 0.02 for a, b in zip(fr, fr[1:])):
            continue
        alpha = float(rng.uniform(0.005, 0.05))
        b = compute_boundaries(alpha, fr)
        assert crossing_probability(b) == pytest.approx(alpha, abs=1e-5)
        checked += 1
    assert time.perf_counter() - start < 1.0


# -- criterion 2: FWER under the global null ---------------------------------


@pytest.mark.parametrize("name", SETTINGS)
def test_c2_fwer_at_most_alpha(mc_runs, name):
    null = mc_runs[name]["null"]
    for label in null.arms:
        assert rate(null, label, "fwer") <= 0.025, f"{name}/{label}"


@pytest.mark.parametrize("name", SETTINGS)
def test_c2_gated_fwer_near_benchmark(mc_runs, name):
    null = mc_runs[name]["null"]
    lo = BENCH_FWER_GGSD[0] - FWER_TOL
    hi = BENCH_FWER_GGSD[1] + FWER_TOL
    for label in null.arms:
        if label.startswith("ggsd:"):
            assert lo <= rate(null, label, "fwer") <= hi, f"{name}/{label}"


@pytest.mark.parametrize("name", SETTINGS)
def test_c2_runtime_budget(mc_runs, name):
    assert mc_runs[name]["elapsed"] < 300.0


@pytest.mark.parametrize("name", SETTINGS)
def test_c2_reproduces_committed_runs(mc_runs, name):
    """The fixture's passes render, byte for byte, the tables `simulate` wrote
    to runs/<setting>/ (there at one worker per CPU, here at up to two)."""
    tables = simulation_tables(mc_runs[name]["power"], mc_runs[name]["null"])
    assert sorted(tables) == ["fwer", "power", "termination"]
    for table, rows in tables.items():
        assert rows_to_csv(rows).encode() == (RUNS_DIR / name / f"{table}.csv").read_bytes(), (
            f"{name}/{table}.csv")


# -- criterion 3: power benchmarks and orderings ------------------------------


@pytest.mark.parametrize("name", SETTINGS)
def test_c3_power_band_gsd(mc_runs, name):
    got = rate(mc_runs[name]["power"], "gsd", "power_s")
    want = BENCH_POWER_GSD[name]
    assert abs(got - want) <= POWER_TOL, (
        f"{name}: GSD power_S {got:.4f} vs benchmark {want}; {INDEPENDENCE_NOTE}")


@pytest.mark.parametrize("name", SETTINGS)
def test_c3_power_band_gated(mc_runs, name):
    got = rate(mc_runs[name]["power"], f"ggsd:{HEADLINE}", "power_s")
    want = BENCH_POWER_GGSD[name]
    assert abs(got - want) <= POWER_TOL, (
        f"{name}: gGSD power_S {got:.4f} vs benchmark {want}; {INDEPENDENCE_NOTE}")


@pytest.mark.parametrize("name", SETTINGS)
def test_c3_ordering_gated_beats_gsd(mc_runs, name):
    power = mc_runs[name]["power"]
    gsd = rate(power, "gsd", "power_s")
    for label in W1_GE_W2:
        got = rate(power, f"ggsd:{label}", "power_s")
        assert got > gsd, (
            f"{name}: gGSD[{label}] power_S {got:.4f} <= GSD {gsd:.4f}; "
            f"{INDEPENDENCE_NOTE}")


def test_c3_ordering_gated_at_least_ad_setting3(mc_runs):
    power = mc_runs["setting3"]["power"]
    for label in ALL_SETS:
        gg = rate(power, f"ggsd:{label}", "power_s")
        ad = rate(power, f"ad:{label}", "power_s")
        assert gg >= ad, f"setting3 weights {label}: {gg:.4f} < {ad:.4f}"


# -- criterion 4: bundled observed-data replay --------------------------------


def test_c4_observed_replay(tmp_path, capsys):
    rc = cli_main(["analyze", "--config", str(CONFIG_DIR / "table5_example.yaml"),
                   "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "analysis.json").read_text())
    # non-gated design: zero rejections
    assert doc["gsd"]["trace"]["rejections"] == {}
    gg = doc["ggsd"]["trace"]
    assert gg["futility"]["decision"] == "continue_full_only"
    rej = gg["rejections"]
    assert rej["PFS(F)"] == "IA1"
    assert rej["OS(F)"] == "IA2"
    assert "OS(S)" not in rej and "PFS(S)" not in rej
    # OS(F) specifically not rejected at IA1
    ia1 = next(a for a in gg["analyses"] if a["name"] == "IA1")
    os_f = next(t for t in ia1["tests"] if t["target"] == "OS(F)")
    assert not os_f["crossed"]
    assert gg["termination"] == {"analysis": "IA2", "reason": "all-rejected"}


# -- criterion 5: property suite ----------------------------------------------


def test_c5_trace_properties():
    cfg = parse_config(CONFIG_DIR / "setting2.yaml")
    designs = [d for d in build_designs(cfg)
               if d.label in ("gsd", "ad:0.5", "ggsd:0.5", "ggsd:0.7")]
    for rep in range(30):
        trial = generate_trial(cfg.scenario, (cfg.seed, rep))
        times = schedule_analyses(trial, cfg.scenario)
        snaps = [snapshot_at(trial, t, cfg.scenario) for t in times]
        fut = snapshot_at(trial, cfg.scenario.stage1_cutoff, cfg.scenario, with_hr=True)
        for d in designs:
            trace = run_design(d, snaps, fut)
            # closed-testing coherence
            if d.kind is not DesignKind.GSD and trace.termination_reason != "futility":
                for label, k in trace.confirmed().items():
                    ep = label.split("(")[0]
                    assert trace.rejected_at.get(f"{ep}(FS)", 99) <= k
            both = d.kind is DesignKind.GGSD and trace.futility.selection is Selection.CONTINUE_BOTH
            # alpha conservation per graph scope
            for rec in trace.analyses:
                if both:
                    for tag in ("S", "F"):
                        tot = sum(v for l, v in rec.alpha_snapshot.items() if f"({tag})" in l)
                        assert tot <= d.alpha + 1e-9
                else:
                    assert sum(rec.alpha_snapshot.values()) <= d.alpha + 1e-9
            # hierarchical gate
            if both:
                ks = {p: [k for l, k in trace.confirmed().items() if f"({p})" in l]
                      for p in ("S", "F")}
                if ks["F"]:
                    assert ks["S"] and min(ks["S"]) <= min(ks["F"])


def test_c5_inverse_normal_standard_normal():
    rng = np.random.default_rng(404)
    n = 100_000
    w = StageWeights.from_squares(0.7, 0.3)
    z = np.array([inverse_normal(p1, p2, w)
                  for p1, p2 in zip(rng.uniform(size=n), rng.uniform(size=n))])
    assert scipy.stats.kstest(z, "norm").statistic < 0.01


def test_c5_logrank_p_uniform():
    rng = np.random.default_rng(808)
    ps = []
    for _ in range(3000):
        n = 100
        arm = rng.random(n) < 0.5
        latent = rng.exponential(8.0, size=n)
        cens = rng.uniform(4.0, 20.0, size=n)
        ps.append(logrank_test(np.minimum(latent, cens), latent <= cens, arm)[1])
    assert scipy.stats.kstest(ps, "uniform").statistic < 0.02


def test_c5_hochberg_bounds():
    rng = np.random.default_rng(55)
    for p1, p2 in rng.uniform(size=(500, 2)):
        q = hochberg_intersection(p1, p2)
        assert min(p1, p2) <= q <= max(p1, p2) + 1e-15
        assert q <= 2 * min(p1, p2) + 1e-15


def test_c5_threshold_monotonicity():
    thetas = [calibrate_threshold(0.7, ev, 0.05) for ev in (100, 200, 400, 800)]
    assert all(b < a for a, b in zip(thetas, thetas[1:]))
    gammas = [calibrate_threshold(0.7, 287, g) for g in (0.01, 0.05, 0.10, 0.20)]
    assert all(b < a for a, b in zip(gammas, gammas[1:]))


def test_c5_bit_identical_reruns(tmp_path):
    cfg_path = str(CONFIG_DIR / "setting1.yaml")
    for sub in ("a", "b"):
        rc = cli_main(["simulate", "--config", cfg_path, "--reps", "25",
                       "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("fwer.csv", "power.csv", "termination.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- criterion 6: early-termination behavior ----------------------------------


@pytest.mark.parametrize("name", SETTINGS)
def test_c6_gated_reaches_final_analysis_less_often(mc_runs, name):
    power = mc_runs[name]["power"]
    gsd_fa = power.arms["gsd"].termination.get("FA", 0)
    gg_fa = power.arms[f"ggsd:{HEADLINE}"].termination.get("FA", 0)
    assert gg_fa < gsd_fa, f"{name}: gGSD FA {gg_fa} !< GSD FA {gsd_fa}"
