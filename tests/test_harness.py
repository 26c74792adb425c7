"""Monte Carlo harness: aggregation, merging, reproducibility."""

import gc
import math
from pathlib import Path

import pytest

from gatedgsd.config import build_designs, parse_config
from gatedgsd.harness import (
    TERMINATION_BINS,
    run_monte_carlo,
    summarize,
    true_null_hypotheses,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(CONFIG_DIR / "setting3.yaml")


@pytest.fixture(scope="module")
def small_designs(cfg):
    return [d for d in build_designs(cfg) if d.label in ("gsd", "ggsd:0.5")]


def test_true_nulls_from_hazard_ratios(cfg):
    # setting 3: complement has no effect, subgroup does; with 50% prevalence
    # the full-population hypotheses are still non-null (diluted effect)
    assert true_null_hypotheses(cfg.scenario) == ()
    null = cfg.scenario.under_global_null()
    assert {str(h) for h in true_null_hypotheses(null)} == {"OS(F)", "PFS(F)", "OS(S)", "PFS(S)"}


def test_report_counts_and_bins(cfg, small_designs):
    rep = run_monte_carlo(cfg.scenario, small_designs, 50, cfg.seed, threads=1)
    for label, agg in rep.arms.items():
        assert agg.n == 50
        assert sum(agg.termination.values()) == 50
        assert set(agg.termination) <= set(TERMINATION_BINS)
        assert 0 <= agg.power_s_hits <= agg.n
    # GSD never stops for futility
    assert rep.arms["gsd"].termination.get("futility", 0) == 0


def test_fwer_zero_when_no_true_nulls(cfg, small_designs):
    rep = run_monte_carlo(cfg.scenario, small_designs, 30, cfg.seed, threads=1)
    # power scenario in setting 3 has no true nulls: FWER hits must be 0
    assert rep.true_nulls == ()
    for agg in rep.arms.values():
        assert agg.fwer_hits == 0


def test_merge_matches_monolithic(cfg, small_designs):
    whole = run_monte_carlo(cfg.scenario, small_designs, 40, cfg.seed, threads=1)
    a = run_monte_carlo(cfg.scenario, small_designs, 40, cfg.seed, threads=2)
    for label in whole.arms:
        assert whole.arms[label].power_s_hits == a.arms[label].power_s_hits
        assert whole.arms[label].termination == a.arms[label].termination
        assert whole.arms[label].rejection_counts == a.arms[label].rejection_counts


def test_summarize_rows(cfg, small_designs):
    null = cfg.scenario.under_global_null()
    rep = run_monte_carlo(null, small_designs, 20, cfg.seed, threads=1)
    tables = summarize([rep])
    assert set(tables) == {"fwer", "power", "termination"}
    fwer = {r["arm"]: r for r in tables["fwer"]}
    assert set(fwer) == {"gsd", "ggsd:0.5"}
    for r in tables["fwer"]:
        assert 0.0 <= r["fwer"] <= 1.0
        assert math.isfinite(r["se"])
    stages = {(r["arm"], r["stage"]) for r in tables["termination"]}
    assert ("gsd", "FA") in stages


def test_monte_carlo_leaves_no_cyclic_garbage():
    # Traces, records and snapshots are freed by reference counting alone: a
    # reference cycle (say, records that point back at their trace) would
    # leave every replication's objects to the cyclic collector and raise
    # peak memory.
    setting2 = parse_config(CONFIG_DIR / "setting2.yaml")
    designs = build_designs(setting2)
    assert len(designs) == 17
    gc.collect()
    gc.disable()
    try:
        run_monte_carlo(setting2.scenario, designs, 20, setting2.seed, threads=1)
        assert gc.collect() == 0
    finally:
        gc.enable()
