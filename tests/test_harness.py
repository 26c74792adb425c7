"""Monte Carlo harness: aggregation, merging, reproducibility."""

import gc
import math
from pathlib import Path

import pytest

from gatedgsd.config import build_designs, parse_config
from gatedgsd.multiplicity import HYPOTHESES, Population
from gatedgsd.harness import (
    TERMINATION_BINS,
    DesignAggregate,
    SimulationReport,
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
        assert 0 <= rep.rates()[label]["power_s"][0] <= 1
    # GSD never stops for futility
    assert rep.arms["gsd"].termination.get("futility", 0) == 0


def test_fwer_zero_when_no_true_nulls(cfg, small_designs):
    rep = run_monte_carlo(cfg.scenario, small_designs, 30, cfg.seed, threads=1)
    # power scenario in setting 3 has no true nulls: FWER hits must be 0
    assert rep.true_nulls == ()
    for rates in rep.rates().values():
        assert rates["fwer"] == (0.0, 0.0)


def test_rates_read_off_the_histogram():
    # S is null, F is not. Masks (bit i: HYPOTHESES[i] = OS(F), PFS(F), OS(S),
    # PFS(S)): 0b0011 rejects F only, 0b1100 S only, 0b0100 OS(S) only.
    agg = DesignAggregate()
    for term, mask, n in ((0, 0, 4), (2, 0b0011, 3), (3, 0b0011, 1), (3, 0b1100, 1),
                          (1, 0b0100, 1)):
        agg.counts[term * 16 + mask] += n
    nulls = tuple(h for h in HYPOTHESES if h.population is Population.SUB)
    report = SimulationReport("s", 1, nulls, {"arm": agg})
    rates = report.rates()["arm"]
    assert {name: p for name, (p, _) in rates.items()} == {
        "fwer": 0.2, "power_s": 0.1, "power_sorf": 0.4}
    assert rates["fwer"][1] == math.sqrt(0.2 * 0.8 / 10)
    assert agg.n == 10
    assert agg.termination == {"futility": 4, "IA1": 1, "IA2": 3, "FA": 2}
    assert agg.rejection_counts == {"OS(F)": 4, "PFS(F)": 4, "OS(S)": 2, "PFS(S)": 1}
    assert agg.merge(agg).counts == [2 * c for c in agg.counts]


def test_merge_matches_monolithic(cfg, small_designs):
    whole = run_monte_carlo(cfg.scenario, small_designs, 40, cfg.seed, threads=1)
    a = run_monte_carlo(cfg.scenario, small_designs, 40, cfg.seed, threads=2)
    for label in whole.arms:
        assert whole.arms[label].counts == a.arms[label].counts
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
