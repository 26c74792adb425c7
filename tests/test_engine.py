"""Decision-engine tests: observed replay, simulated traces, invariants."""

import collections
import dataclasses
import enum
import importlib.util
import itertools
import json
import math
from pathlib import Path

import pytest

from gatedgsd import combine, engine, harness, simdata
from gatedgsd.boundaries import cached_boundaries
from gatedgsd.config import build_designs, parse_config
from gatedgsd.engine import (
    DesignConfigError,
    DesignKind,
    DesignSpec,
    MissingSlotError,
    ObservedData,
    analyze_observed,
    render_narrative,
    run_design,
)
from gatedgsd.combine import event_weights, inverse_normal
from gatedgsd.futility import Selection
from gatedgsd.harness import replication_inputs, run_monte_carlo
from gatedgsd.multiplicity import (H_F_OS, H_F_PFS, H_S_OS, H_S_PFS, Endpoint, Population,
                                   hochberg_intersection)
from gatedgsd.numerics import norm_cdf, norm_quantile
from gatedgsd.simdata import generate_trial, schedule_analyses, slot, snapshot_at

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"
# The futility gate's selections that continue into stage 2.
CONTINUING = tuple(s for s in Selection if s is not Selection.STOP_FUTILITY)


@pytest.fixture(scope="module")
def setting2():
    return parse_config(CONFIG_DIR / "setting2.yaml")


@pytest.fixture(scope="module")
def designs2(setting2):
    return {d.label: d for d in build_designs(setting2)}


@pytest.fixture(scope="module")
def example_config():
    return parse_config(CONFIG_DIR / "table5_example.yaml")


# -- observed replay --------------------------------------------------------


def test_observed_replay_gsd_no_rejections(example_config):
    designs = {d.label.split(":")[0]: d for d in build_designs(example_config)}
    trace = analyze_observed(designs["gsd"], example_config.observed["gsd"])
    assert trace.confirmed() == {}
    assert trace.termination_reason == "reached-FA"


def test_observed_replay_gated_sequence(example_config):
    designs = {d.label.split(":")[0]: d for d in build_designs(example_config)}
    trace = analyze_observed(designs["ggsd"], example_config.observed["ggsd"])
    assert trace.futility.selection is Selection.CONTINUE_FULL_ONLY
    assert trace.confirmed() == {"PFS(F)": 0, "OS(F)": 1}
    assert trace.termination_index == 1
    assert trace.termination_reason == "all-rejected"
    narrative = render_narrative(trace)
    assert narrative.endswith("OS(F) rejected at IA2")
    assert "continue full only" in narrative


def test_observed_replay_deterministic(example_config):
    designs = {d.label.split(":")[0]: d for d in build_designs(example_config)}
    a = analyze_observed(designs["ggsd"], example_config.observed["ggsd"])
    b = analyze_observed(designs["ggsd"], example_config.observed["ggsd"])
    # to_dict writes None, not NaN, where there is no boundary or alpha, so
    # the dicts compare equal as they are
    assert a.to_dict() == b.to_dict()


def test_observed_futility_stop_narrative(designs2):
    # Hazard ratios that fail both thresholds stop the trial at the gate:
    # nothing is tested, so no p-value is needed.
    trace = analyze_observed(designs2["ggsd:0.5"], ObservedData(hr_full=5.0, hr_sub=5.0))
    assert trace.futility.selection is Selection.STOP_FUTILITY
    assert render_narrative(trace).splitlines()[-2:] == [
        "Trial stopped for futility at the end of stage 1.", "No hypotheses tested"]
    assert trace.to_dict()["termination"]["reason"] == "futility"


def test_observed_missing_slot_raises(designs2):
    observed = ObservedData(hr_full=0.7, hr_sub=0.7,
                            p_values={H_S_PFS: {0: 0.2}})  # both continue: F slots missing
    with pytest.raises(MissingSlotError):
        analyze_observed(designs2["ggsd:0.5"], observed)


def test_observed_requires_futility_hrs(designs2):
    with pytest.raises(MissingSlotError):
        analyze_observed(designs2["ggsd:0.5"], ObservedData(p_values={}))


def test_observed_ggsd_both_gates_full_behind_sub(designs2):
    # Both populations pass the gate. At IA1 PFS(F) crosses its own boundary
    # (z 3.09 > 2.47) but stays blocked: no S hypothesis is rejected yet.
    # PFS(S) is rejected at IA2, which opens the gate for PFS(F) there.
    design = designs2["ggsd:0.5"]
    p = {H_F_PFS: {0: 0.001, 1: 0.0005}, H_S_PFS: {0: 0.02, 1: 0.005},
         H_F_OS: {0: 0.3, 1: 0.3, 2: 0.3}, H_S_OS: {0: 0.3, 1: 0.3, 2: 0.3}}
    trace = analyze_observed(design, ObservedData(hr_full=0.7, hr_sub=0.7, p_values=p))
    assert trace.futility.selection is Selection.CONTINUE_BOTH
    assert trace.confirmed() == {"PFS(F)": 1, "PFS(S)": 1}
    assert trace.rejected_at["PFS(FS)"] == 0
    assert "OS(FS)" not in trace.rejected_at
    assert trace.analyses[0].newly_rejected == []
    assert trace.termination_index == 2
    assert trace.termination_reason == "reached-FA"
    fs = {t.target_label: t.z for t in trace.analyses[0].tests}
    assert fs["PFS(FS)"] == -norm_quantile(hochberg_intersection(0.001, 0.02))
    assert fs["OS(FS)"] == -norm_quantile(hochberg_intersection(0.3, 0.3))


@pytest.mark.parametrize("selection, hrs, expected", [
    (Selection.CONTINUE_BOTH, (0.7, 0.7), hochberg_intersection(0.1, 0.3)),
    (Selection.CONTINUE_SUB_ONLY, (0.9, 0.7), 0.3),
    (Selection.CONTINUE_FULL_ONLY, (0.7, 0.9), 0.1),
], ids=["both", "s_only", "f_only"])
def test_observed_fs_p_is_the_continuing_populations(designs2, selection, hrs, expected):
    # F's p-values 0.1 and S's 0.3 at every look: their Hochberg intersection
    # (0.2) differs from both, so each scenario's FS p-value shows.
    design = designs2["ad:0.5"]
    p = {h: {k: 0.1 if h.population is Population.FULL else 0.3
             for k in design.endpoint_analyses[h.endpoint]}
         for h in (H_F_OS, H_F_PFS, H_S_OS, H_S_PFS)}
    trace = analyze_observed(design, ObservedData(*hrs, p_values=p))
    assert trace.futility.selection is selection
    for rec in trace.analyses:
        z = {t.target_label: t.z for t in rec.tests}
        assert z["PFS(FS)"] == z["OS(FS)"] == -norm_quantile(expected)


def test_observed_ad_sub_only_passes_alpha_within_sub(designs2):
    # The full population fails the gate (0.9 >= 0.83). PFS(S) is rejected
    # at IA1 and hands its alpha to OS(S), whose IA2 z (2.58) crosses only
    # the raised boundary (2.44, against 2.67 at its own allocation).
    design = designs2["ad:0.5"]
    p = {H_S_PFS: {0: 0.001}, H_S_OS: {0: 0.01, 1: 0.005}}
    trace = analyze_observed(design, ObservedData(hr_full=0.9, hr_sub=0.7, p_values=p))
    assert trace.futility.selection is Selection.CONTINUE_SUB_ONLY
    assert trace.confirmed() == {"PFS(S)": 0, "OS(S)": 1}
    assert trace.termination_index == 1
    assert trace.termination_reason == "all-rejected"


def test_observed_rereads_earlier_look_after_alpha_increase(designs2):
    # Subgroup only. PFS(S) is rejected at IA2 and hands its alpha to OS(S).
    # OS(S)'s IA1 z lies between its raised and its original IA1 boundary,
    # and its IA2 z crosses neither: only re-reading the passed IA1 look
    # against the raised boundary rejects OS(S), at IA2.
    design = designs2["ad:0.5"]
    own_alpha = design.initial_alphas[H_S_OS]
    raised_alpha = own_alpha + design.initial_alphas[H_S_PFS]
    own = cached_boundaries(own_alpha, design.fractions[H_S_OS]).z_bounds
    raised = cached_boundaries(raised_alpha, design.fractions[H_S_OS]).z_bounds
    z1 = (own[0] + raised[0]) / 2.0
    z2 = raised[1] - 0.5
    assert raised[0] < z1 < own[0] and z2 < raised[1] < own[1]
    p = {H_S_PFS: {0: 0.2, 1: 1e-5},
         H_S_OS: {0: 1.0 - norm_cdf(z1), 1: 1.0 - norm_cdf(z2)}}
    trace = analyze_observed(design, ObservedData(hr_full=0.9, hr_sub=0.7, p_values=p))
    assert trace.futility.selection is Selection.CONTINUE_SUB_ONLY
    assert trace.analyses[0].newly_rejected == []
    assert trace.analyses[1].newly_rejected == ["PFS(S)", "OS(S)"]
    assert trace.confirmed() == {"PFS(S)": 1, "OS(S)": 1}
    assert trace.termination_index == 1
    assert trace.termination_reason == "all-rejected"
    # The IA2 row shows the statistic OS(S) was rejected on, its IA1 z
    # against the raised IA1 boundary, not its IA2 z.
    row = next(t for t in trace.analyses[1].tests if t.target_label == "OS(S)")
    assert (row.z, row.boundary_z) == pytest.approx((z1, raised[0]), abs=1e-9)
    assert row.crossed and row.confirmed
    assert f"IA2: OS(S) z = {z1:.4f} vs boundary {raised[0]:.4f}" in render_narrative(trace)


def test_narrative_names_a_hypothesis_without_alpha(designs2):
    # gGSD with the full population alone starts all alpha on PFS(F): OS(F)
    # holds none until PFS(F) is rejected, so its rows have no boundary
    # (null in to_dict). The narrative says so instead of printing NaN.
    design = designs2["ggsd:0.5"]
    p = {h: {k: 0.3 if h is H_F_PFS else 0.003 for k in design.endpoint_analyses[h.endpoint]}
         for h in (H_F_PFS, H_F_OS)}
    trace = analyze_observed(design, ObservedData(hr_full=0.7, hr_sub=0.9, p_values=p))
    assert trace.futility.selection is Selection.CONTINUE_FULL_ONLY and trace.confirmed() == {}
    text = render_narrative(trace)
    z = -norm_quantile(0.003)
    assert "nan" not in text
    assert [line for line in text.splitlines() if "OS(F)" in line] == [
        f"{engine.ANALYSIS_NAMES[k]}: OS(F) z = {z:.4f}, no boundary (holds no alpha) "
        "-> not rejected" for k in design.endpoint_analyses[Endpoint.OS]]
    assert all(row["boundary_z"] is None and row["nominal_p"] is None
               for a in trace.to_dict()["analyses"] for row in a["tests"]
               if row["target"] == "OS(F)")


def test_observed_futility_stop(designs2):
    rule = designs2["ggsd:0.5"].futility
    trace = analyze_observed(designs2["ggsd:0.5"],
                             ObservedData(hr_full=rule.theta_full + 0.1,
                                          hr_sub=rule.theta_sub + 0.1))
    assert trace.termination_reason == "futility"
    assert trace.confirmed() == {}


def test_observed_clamped_p_values_warn(designs2):
    # A p-value of 1 is clamped before its normal score is taken; the replay
    # records it per (analysis, target), as a simulated arm does.
    design = designs2["gsd"]
    p = {h: {k: 1.0 for k in design.endpoint_analyses[h.endpoint]}
         for h in (H_F_PFS, H_S_PFS, H_F_OS, H_S_OS)}
    trace = analyze_observed(design, ObservedData(p_values=p))
    assert trace.confirmed() == {}
    per_analysis = (("PFS(F)", "PFS(S)", "OS(F)", "OS(S)"),) * 2 + (("OS(F)", "OS(S)"),)
    assert trace.warnings == [f"analysis {k + 1}: degenerate p-value clamped for {label}"
                              for k, labels in enumerate(per_analysis) for label in labels]
    assert trace.to_dict()["warnings"] == trace.warnings
    # gGSD also clamps each endpoint's FS intersection, Hochberg of two 1s.
    gated = analyze_observed(designs2["ggsd:0.5"], ObservedData(0.7, 0.7, p_values=p))
    assert "analysis 1: degenerate p-value clamped for PFS(FS)" in gated.warnings
    plain = analyze_observed(design, ObservedData(p_values={h: {k: 0.5 for k in looks}
                                                            for h, looks in p.items()}))
    assert plain.warnings == []


@pytest.mark.parametrize("fields, message", [
    (dict(p_values={H_F_PFS: {0: 1.5}}), r"^p_values\.full_pfs\.IA1: .*\(0, 1\], got 1\.5$"),
    (dict(p_values={H_S_OS: {0: 0.2, 2: 0.0}}), r"^p_values\.sub_os\.FA: .*got 0$"),
    (dict(hr_full=0.0, hr_sub=-1.0), r"^hr_full: .*got 0; hr_sub: .*got -1$"),
], ids=["p_above_1", "p_zero", "hazard_ratios"])
def test_observed_data_refuses_values_out_of_range(fields, message):
    # These used to construct; p = 1.5 then failed in the Hochberg
    # intersection, naming no field.
    with pytest.raises(ValueError, match=message):
        ObservedData(**fields)


# -- simulated traces and their invariants ----------------------------------


def _traces(config, labels, n_rep, scenario=None):
    scenario = scenario or config.scenario
    designs = [d for d in build_designs(config) if d.label in labels]
    out = []
    for rep in range(n_rep):
        trial = generate_trial(scenario, (config.seed, rep))
        times = schedule_analyses(trial, scenario)
        snaps = [snapshot_at(trial, t, scenario) for t in times]
        fut = snapshot_at(trial, scenario.stage1_cutoff, scenario, with_hr=True)
        for d in designs:
            out.append((d, run_design(d, snaps, fut)))
    return out


def _first_rejection_index(trace, population):
    idx = [k for label, k in trace.confirmed().items()
           if f"({'S' if population is Population.SUB else 'F'})" in label]
    return min(idx) if idx else None


LABELS = ("gsd", "ad:0.5", "ggsd:0.5")


def test_trace_invariants_alternative(setting2):
    for design, trace in _traces(setting2, LABELS, 40):
        check_trace(design, trace)


def test_trace_invariants_null(setting2):
    null = setting2.scenario.under_global_null()
    for design, trace in _traces(setting2, LABELS, 40, scenario=null):
        check_trace(design, trace)


def check_trace(design: DesignSpec, trace):
    # closed-testing coherence: an elementary rejection needs its endpoint's
    # FS intersection rejected at the same analysis or earlier
    if design.kind is not DesignKind.GSD and trace.termination_reason != "futility":
        for label, k in trace.confirmed().items():
            ep = "PFS" if label.startswith("PFS") else "OS"
            assert f"{ep}(FS)" in trace.rejected_at
            assert trace.rejected_at[f"{ep}(FS)"] <= k
    # hierarchical gate: with both populations continuing, no full-population
    # rejection may precede the first subgroup rejection
    both = design.kind is DesignKind.GGSD and trace.futility.selection is Selection.CONTINUE_BOTH
    if both:
        full_k = _first_rejection_index(trace, Population.FULL)
        sub_k = _first_rejection_index(trace, Population.SUB)
        if full_k is not None:
            assert sub_k is not None and sub_k <= full_k
    # alpha conservation: live alpha per graph scope never exceeds its budget
    for rec in trace.analyses:
        snap = rec.alpha_snapshot
        if both:
            for tag in ("S", "F"):
                tot = sum(v for lbl, v in snap.items() if f"({tag})" in lbl)
                assert tot <= design.alpha + 1e-9
        else:
            assert sum(snap.values()) <= design.alpha + 1e-9
    # rejections are final: no label rejected twice, indices within plan
    for label, k in trace.rejected_at.items():
        assert 0 <= k < design.n_analyses
    # test rows: a crossed row shows a statistic that reaches its boundary,
    # only a crossed target is confirmed, only an FS row has no alpha, and a
    # confirmed hypothesis has a row in every analysis from its rejection on
    for rec in trace.analyses:
        for t in rec.tests:
            assert not t.crossed or t.z >= t.boundary_z, (rec.index, t)
            assert t.crossed or not t.confirmed, (rec.index, t)
            assert math.isnan(t.alpha) == ("(FS)" in t.target_label), (rec.index, t)
        shown = {t.target_label for t in rec.tests if t.confirmed}
        assert {label for label, k in trace.confirmed().items() if k <= rec.index} <= shown


def test_run_design_bit_identical(setting2, designs2):
    scenario = setting2.scenario
    trial = generate_trial(scenario, (setting2.seed, 5))
    times = schedule_analyses(trial, scenario)
    snaps = [snapshot_at(trial, t, scenario) for t in times]
    fut = snapshot_at(trial, scenario.stage1_cutoff, scenario, with_hr=True)
    d = designs2["ggsd:0.7"]
    assert (json.dumps(run_design(d, snaps, fut).to_dict(), sort_keys=True)
            == json.dumps(run_design(d, snaps, fut).to_dict(), sort_keys=True))


def test_run_design_needs_enough_snapshots(designs2, setting2):
    scenario = setting2.scenario
    trial = generate_trial(scenario, (setting2.seed, 1))
    times = schedule_analyses(trial, scenario)
    snaps = [snapshot_at(trial, t, scenario) for t in times]
    with pytest.raises(MissingSlotError):
        run_design(designs2["gsd"], snaps[:1], None)
    fut = snapshot_at(trial, scenario.stage1_cutoff, scenario)  # no HRs
    with pytest.raises(MissingSlotError):
        run_design(designs2["ggsd:0.5"], snaps, fut)


def test_design_spec_validation(designs2):
    good = designs2["gsd"]
    bad_alphas = dict(good.initial_alphas)
    bad_alphas[H_F_OS] += 0.01
    with pytest.raises(Exception):
        DesignSpec(kind=good.kind, alpha=good.alpha, initial_alphas=bad_alphas,
                   fractions=good.fractions, endpoint_analyses=good.endpoint_analyses)
    # an OS look at a fourth analysis: only IA1, IA2 and FA exist
    with pytest.raises(DesignConfigError):
        DesignSpec(kind=good.kind, alpha=good.alpha, initial_alphas=good.initial_alphas,
                   fractions=good.fractions,
                   endpoint_analyses={Endpoint.PFS: (0, 1), Endpoint.OS: (0, 1, 3)})
    # a schedule that is not strictly increasing, built without parse_config
    with pytest.raises(DesignConfigError, match="strictly increasing"):
        dataclasses.replace(good, endpoint_analyses={Endpoint.PFS: (1, 0),
                                                     Endpoint.OS: (0, 1, 2)})
    # an empty schedule, and fractions that are not increasing: both were
    # built, and failed later with no field name. A refused or missing
    # schedule is reported alone, without the counts of fractions against it
    with pytest.raises(DesignConfigError,
                       match=r"^endpoint_analyses\.pfs: expected at least one analysis$"):
        dataclasses.replace(good, endpoint_analyses={Endpoint.PFS: (), Endpoint.OS: (0, 1, 2)})
    with pytest.raises(DesignConfigError,
                       match=r"^endpoint_analyses\.pfs: analysis schedule missing$"):
        dataclasses.replace(designs2["ad:0.5"], endpoint_analyses={Endpoint.OS: (0, 1, 2)})
    with pytest.raises(DesignConfigError, match=r"fractions\.full\.os: fractions must be strictly"):
        dataclasses.replace(good, fractions={**good.fractions, H_F_OS: (0.6, 0.5, 1.0)})
    # an AD arm needs a weight table per endpoint; None means event-driven
    ad = designs2["ad:0.5"]
    with pytest.raises(DesignConfigError, match="weight table missing or misaligned"):
        dataclasses.replace(ad, weights={})
    # every refusal is gathered, each under its field path
    with pytest.raises(DesignConfigError,
                       match=r"^weights\.os: weight table missing or misaligned$"):
        dataclasses.replace(ad, weights={Endpoint.PFS: ad.weights[Endpoint.PFS]})
    no_pfs_f = {h: fr for h, fr in ad.fractions.items() if h != H_F_PFS}
    with pytest.raises(DesignConfigError,
                       match=r"^alpha: expected .*got 0\.7; .*fractions\.full\.pfs: fractions missing$"):
        dataclasses.replace(ad, fractions=no_pfs_f, alpha=0.7)
    # a missing alpha is refused alone: a None stops the sums, so no sum
    # complaint comes with it
    no_os_f = {h: a for h, a in good.initial_alphas.items() if h != H_F_OS}
    with pytest.raises(DesignConfigError,
                       match=r"^initial_alphas\.full_os: expected a number >= 0, got None$"):
        dataclasses.replace(good, initial_alphas=no_os_f)
    with pytest.raises(DesignConfigError,
                       match=r"^fractions\.full\.os: 2 fractions but 3 planned analyses$"):
        dataclasses.replace(good, fractions={**good.fractions, H_F_OS: good.fractions[H_F_OS][1:]})
    with pytest.raises(DesignConfigError, match=r"^futility: ad requires a futility rule$"):
        dataclasses.replace(ad, futility=None)
    for arm, event_driven in ((ad, False), (dataclasses.replace(ad, weights=None), True)):
        ws = [w for plan in arm._plans.values() for load in plan.loads for _, w, *_ in load]
        assert ws and all((w is None) is event_driven for w in ws)


def test_trace_lists_a_target_once_it_has_a_statistic(setting2, designs2):
    # Every arm with its OS looks at IA2 and FA only, fractions and weights
    # trimmed to match: no OS target has a statistic at IA1, so IA1's rows
    # are the PFS targets alone and IA2 adds the OS rows.
    def late_os(d):
        fractions = {h: fr[1:] if h.endpoint is Endpoint.OS else fr
                     for h, fr in d.fractions.items()}
        weights = d.weights and {**d.weights, Endpoint.OS: d.weights[Endpoint.OS][1:]}
        return dataclasses.replace(d, fractions=fractions, weights=weights, endpoint_analyses={
            Endpoint.PFS: d.endpoint_analyses[Endpoint.PFS], Endpoint.OS: (1, 2)})

    arms = [late_os(d) for d in designs2.values()]
    for rep in range(5):
        snaps, fut = replication_inputs(setting2.scenario, setting2.seed, rep)
        for design in arms:
            trace = run_design(design, snaps, fut)
            # these replications continue with both populations in every gated arm
            assert trace.futility is None or trace.futility.selection is Selection.CONTINUE_BOTH
            pfs = ["PFS(F)", "PFS(S)"] + ["PFS(FS)"] * (design.kind is not DesignKind.GSD)
            rows = [[t.target_label for t in rec.tests] for rec in trace.analyses]
            assert rows[0] == pfs, (rep, design.label)
            assert rows[1] == pfs + [label.replace("PFS", "OS") for label in pfs], (rep, design.label)
            json.dumps(trace.to_dict())
            assert "IA1: OS" not in render_narrative(trace)
    run_monte_carlo(setting2.scenario, arms, 20, setting2.seed)


# -- the wiring of simulated snapshots ------------------------------------------


def test_simulated_and_observed_traces_list_rows_alike():
    # Both loaders walk the plan's reads, so a simulated trace and an
    # observed replay of one gated arm list IA1's rows in one order: each
    # endpoint's hypotheses, then its FS intersection. The replay gets the
    # trial's futility hazard ratios, so it continues in the same scenario,
    # and a p-value of 0.5 at every analysis.
    p = {h: dict.fromkeys(range(len(engine.ANALYSIS_NAMES)), 0.5) for h in engine.HYPOTHESES}
    reached = set()
    for path in sorted(CONFIG_DIR.glob("setting*.yaml")):
        config = parse_config(path)
        arms = [d for d in build_designs(config) if d.kind is not DesignKind.GSD]
        for rep in range(60):
            snaps, fut = replication_inputs(config.scenario, config.seed, rep)
            observed = ObservedData(fut.hr_full, fut.hr_sub, p_values=p)
            for design in arms:
                simulated = run_design(design, snaps, fut)
                selection = simulated.futility.selection
                if selection is Selection.STOP_FUTILITY:
                    continue
                replay = analyze_observed(design, observed)
                assert replay.futility.selection is selection
                labels = [[t.target_label for t in trace.analyses[0].tests]
                          for trace in (simulated, replay)]
                assert labels[0] == labels[1], (path.stem, rep, design.label)
                reached.add((design.kind, selection))
    assert reached == {(kind, s) for kind in (DesignKind.AD, DesignKind.GGSD) for s in CONTINUING}


def _wiring(selection, ep, p):
    """(target label, p1, p2) per target tested on `ep` after `selection`,
    with `p` keyed by (stage, population): the pairing of stage-wise p-values
    written out per selection, the reference for the engine's wiring table."""
    tag = ep.value.upper()
    full, sub = Population.FULL, Population.SUB
    fs1 = hochberg_intersection(p["stage1", full], p["stage1", sub])
    h_full = (f"{tag}(F)", p["stage1", full], p["stage2", full])
    h_sub = (f"{tag}(S)", p["stage1", sub], p["stage2", sub])
    if selection is Selection.CONTINUE_SUB_ONLY:
        return [h_sub, (f"{tag}(FS)", fs1, p["stage2", sub])]
    if selection is Selection.CONTINUE_FULL_ONLY:
        return [h_full, (f"{tag}(FS)", fs1, p["stage2", full])]
    fs2 = hochberg_intersection(p["stage2", full], p["stage2", sub])
    return [h_full, h_sub, (f"{tag}(FS)", fs1, fs2)]


# Each case is named by the continuation scenario `to_dict` writes for it.
@pytest.mark.parametrize("ep", list(Endpoint))
@pytest.mark.parametrize("selection", CONTINUING,
                         ids=lambda s: f"Scenario.{engine._SCENARIO_NAMES[s].upper()}")
def test_scores_follow_the_wiring(setting2, designs2, selection, ep):
    # Every arm's combined z, w1*q1 + w2*q2 on the shared scores, is bit for
    # bit combine.inverse_normal of the wired stage-wise p-values.
    weights = {w for d in designs2.values() for w in (d.weights or {}).get(ep, ())}
    assert weights
    snaps, _ = replication_inputs(setting2.scenario, setting2.seed, 0)
    plan = designs2["ad:0.5"]._plans[selection]
    reads = next(reads for load in plan.loads for _, _, reads, (e, *_) in load
                 if list(Endpoint)[e] is ep)
    for snap in snaps:
        p = {(stage, pop): snap.p[slot(stage, pop, ep)]
             for stage in ("stage1", "stage2") for pop in Population}
        wired = _wiring(selection, ep, p)
        assert [engine._TARGETS[i].label for i, _, _ in reads] == [t for t, _, _ in wired]
        for (_, j1, j2), (_, p1, p2) in zip(reads, wired):
            (q1, clamped1), (q2, clamped2) = snap.scores[j1], snap.scores[j2]
            assert not (clamped1 or clamped2)
            for w in weights:
                assert w.w1 * q1 + w.w2 * q2 == inverse_normal(p1, p2, w)


class _SnapshotProxy:
    """A snapshot that reads as the one it wraps, but for what a subclass
    overrides."""

    def __init__(self, snap):
        self._snap = snap

    def __getattr__(self, name):
        return getattr(self._snap, name)


class _NoFullEvents(_SnapshotProxy):
    """A snapshot whose stage-wise counts, read through `block` and `events`,
    report no full-population event in either stage; its p-values and scores
    are the snapshot's own."""

    FULL = {slot(c, Population.FULL, ep) for c in ("stage1", "stage2") for ep in Endpoint}

    def block(self, e, pooled):
        return [stat if stat is None or j not in self.FULL else (*stat[:2], 0)
                for j, stat in enumerate(self._snap.block(e, pooled))]

    @property
    def events(self):
        return tuple(0 if j in self.FULL else n for j, n in enumerate(self._snap.events))


def test_event_driven_weights_are_event_weights(setting2, designs2):
    # An event-driven arm weighs the stages by the full population's
    # stage-wise event counts of the endpoint: every z it records is bit for
    # bit combine.inverse_normal of the wired p-values with
    # combine.event_weights of those counts. Snapshots that report no such
    # event take weights (1, 0), so each z is the stage-1 score.
    arms = [d for d in designs2.values() if d.kind is not DesignKind.GSD and d.weights is None]
    assert {d.kind for d in arms} == {DesignKind.AD, DesignKind.GGSD}
    checked = collections.Counter()
    for rep, no_events in itertools.product(range(6), (False, True)):
        snaps, fut = replication_inputs(setting2.scenario, setting2.seed, rep)
        if no_events:
            snaps = [_NoFullEvents(snap) for snap in snaps]
        for design in arms:
            dec = engine.decide_design(design, snaps, fut)
            for t, hist in enumerate(dec.z):
                label, ep = engine._TARGETS[t]
                for look, z in hist:
                    snap = snaps[design.endpoint_analyses[ep][look]]
                    p = {(stage, pop): snap.p[slot(stage, pop, ep)]
                         for stage in ("stage1", "stage2") for pop in Population}
                    wired = _wiring(dec.futility.selection, ep, p)
                    (p1, p2), = [(p1, p2) for target, p1, p2 in wired if target == label]
                    d1, d2 = (snap.events[slot(stage, Population.FULL, ep)]
                              for stage in ("stage1", "stage2"))
                    assert z == inverse_normal(p1, p2, event_weights(d1, d2)), (rep, label, look)
                    checked[no_events, design.kind, ep] += 1
    assert len(checked) == 8  # both arms and both endpoints, with and without events


# -- work per call ------------------------------------------------------------


def test_monte_carlo_builds_no_test_records(monkeypatch, setting2, designs2):
    # The Monte Carlo decides each arm without a trace: no DecisionTrace, no
    # AnalysisRecord and no TestRecord, whatever the replication.
    built = collections.defaultdict(list)
    for cls in (engine.DecisionTrace, engine.AnalysisRecord, engine.TestRecord):
        def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls.__name__].append(args or kwargs)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    run_monte_carlo(setting2.scenario, list(designs2.values()), 3, setting2.seed)
    run_monte_carlo(setting2.scenario.under_global_null(), list(designs2.values()), 3,
                    setting2.seed)
    assert built == {}
    # A trace still renders its records when one is asked for.
    trace = _traces(setting2, ("gsd",), 1)[0][1]
    assert trace.analyses[0].tests and len(built["TestRecord"]) == len(trace.analyses[0].tests)


def test_build_designs_solves_no_boundary(setting2):
    # Boundary rows, and the per-mask tests built from them, are solved when
    # a run first reaches them, not when the arms or their plans are built.
    cached_boundaries.cache_clear()
    designs = build_designs(setting2)
    assert len(designs) == 17 and all(d._plans for d in designs)
    assert cached_boundaries.cache_info().misses == 0
    assert all(not plan._tests for d in designs for plan in d._plans.values())


class _ClampedScores(_SnapshotProxy):
    """A snapshot whose PFS stage-1 scores of F and of the FS intersection
    read as clamped, values unchanged."""

    CLAMPED = (slot("stage1", Population.FULL, Endpoint.PFS),
               simdata.joint_slot("stage1", Endpoint.PFS))

    def endpoint_scores(self, e):
        scores = list(self._snap.endpoint_scores(e))
        for j in self.CLAMPED:
            scores[j] = (scores[j][0], True)
        return scores


def test_clamp_warnings_reach_the_trace(setting2, designs2):
    # A clamped score is recorded per (analysis, target) while deciding, and
    # worded only when the warnings are read: on the trace and the decision.
    snaps, fut = replication_inputs(setting2.scenario, setting2.seed, 0)
    clamped = [_ClampedScores(snap) for snap in snaps]
    design = designs2["ggsd:0.5"]
    trace = run_design(design, clamped, fut)
    pfs_looks = design.endpoint_analyses[Endpoint.PFS]
    expected = [f"analysis {k + 1}: degenerate p-value clamped for {label}"
                for k in pfs_looks if k <= trace.termination_index
                for label in ("PFS(F)", "PFS(FS)")]
    assert expected and trace.warnings == expected
    assert trace.to_dict()["warnings"] == expected
    assert engine.decide_design(design, clamped, fut).warnings == expected
    # The values are the snapshot's own, so the decisions do not move.
    plain = run_design(design, snaps, fut)
    assert plain.warnings == [] and plain.rejected_at == trace.rejected_at


def test_normal_scores_computed_once_per_snapshot(monkeypatch, setting2, designs2):
    # A snapshot computes an endpoint's six scores (four stage-wise, two
    # Hochberg) when the first arm reads that endpoint, and shares them with
    # every other arm, whatever its scenario. No bundled arm tests PFS at the
    # final analysis, so that snapshot computes no PFS score.
    calls = []

    def counting_quantile(p):
        calls.append(p)
        return norm_quantile(p)

    monkeypatch.setattr(combine, "norm_quantile", counting_quantile)
    looks = {(k, ep) for d in designs2.values() for ep, ks in d.endpoint_analyses.items()
             for k in ks}
    assert (2, Endpoint.PFS) not in looks and len(looks) == 5
    snaps, fut = replication_inputs(setting2.scenario, setting2.seed, 0)
    traces = [run_design(d, snaps, fut) for d in designs2.values()]
    assert len(traces) == 17
    assert {t.futility.selection for t in traces
            if t.design != "gsd"} == {Selection.CONTINUE_BOTH}
    assert len(calls) == 6 * len(looks)
    # Every quantile is computed at most once per snapshot: running the arms
    # again computes none, and reading the whole tables computes only the
    # final analysis's PFS half.
    for d in designs2.values():
        run_design(d, snaps, fut)
    assert len(calls) == 6 * len(looks)
    for k, snap in enumerate(snaps):
        before = len(calls)
        assert len(snap.scores) == 12
        assert len(calls) - before == (6 if k == 2 else 0)
    # A replication in which every gated arm stops at the futility gate reads
    # no score table, so it computes no quantile.
    calls.clear()
    snaps, fut = replication_inputs(setting2.scenario.under_global_null(), setting2.seed, 0)
    traces = [run_design(d, snaps, fut) for d in designs2.values()]
    assert {t.termination_reason for t in traces if t.design != "gsd"} == {"futility"}
    assert calls == []


@pytest.fixture
def fills(monkeypatch):
    """Every sample count made while the fixture is live, in order:
    [endpoint, cutoff, groups counted by, slots filled]. The futility
    snapshot's count fills no slot (None)."""
    out = []
    censor, count, kernel = simdata._censor, simdata._slot_counts, simdata._logrank_slots

    def counting_censor(trial, ep, time, mask):
        out.append([ep, time, None, None])
        return censor(trial, ep, time, mask)

    def counting_counts(d, s, group, member):
        out[-1][2] = member.shape[1]  # groups the slots are made of
        return count(d, s, group, member)

    def counting_kernel(counts, ends, sizes):
        out[-1][3] = len(ends)
        return kernel(counts, ends, sizes)

    monkeypatch.setattr(simdata, "_censor", counting_censor)
    monkeypatch.setattr(simdata, "_slot_counts", counting_counts)
    monkeypatch.setattr(simdata, "_logrank_slots", counting_kernel)
    return out


def test_snapshots_compute_only_the_blocks_read(fills, setting2, designs2):
    # An analysis snapshot censors and counts an endpoint's sample, and fills
    # a block of its slots, only when an arm reads it: GSD the pooled pair,
    # counted by (subgroup, arm), and a gated arm the stage-wise block behind
    # its scores, counted by (cell, arm), which fills all six slots. Here GSD
    # reads first, so a sample it read is counted again for the gated arms.
    arms = list(designs2.values())
    assert arms[0].kind is DesignKind.GSD
    snaps, fut = replication_inputs(setting2.scenario, setting2.seed, 0)
    fills.clear()
    traces = [run_design(d, snaps, fut) for d in arms]
    final_pfs = (Endpoint.PFS, snaps[2].calendar_time)
    samples = {(ep, time) for ep, time, *_ in fills}
    assert len(samples) == 5 and final_pfs not in samples
    gsd_end = next(t.termination_index for t in traces if t.design == "gsd")
    gsd_looks = sum(n for k, n in enumerate((2, 2, 1)) if k <= gsd_end)
    assert collections.Counter((g, n) for *_, g, n in fills) == {
        (4, 2): gsd_looks, (8, 6): 5}
    # Whole-table reads fill every block, once: the one sample left is the
    # final analysis's PFS, all six slots in one call.
    fills.clear()
    assert [len(snap.z) for snap in snaps] == [12] * 3
    assert fills == [[*final_pfs, 8, 6]]


def test_null_replication_counts_pooled_samples_by_subgroup_and_arm(fills, setting2, designs2):
    # Null replication 0: every gated arm stops at futility, so only GSD's
    # five (analysis, endpoint) looks are computed, each a pooled pair read
    # off four (subgroup, arm) groups.
    spec = setting2.scenario.under_global_null()
    report = harness._run_chunk(spec, list(designs2.values()), setting2.seed, [0])
    assert {label: agg.termination["futility"] for label, agg in report.arms.items()
            if label != "gsd"} == {label: 1 for label in designs2 if label != "gsd"}
    assert fills[0] == [Endpoint.PFS, spec.stage1_cutoff, 4, None]  # the futility snapshot
    assert [f[2:] for f in fills[1:]] == [[4, 2]] * 5
    assert len({(ep, time) for ep, time, *_ in fills[1:]}) == 5


def test_run_chunk_counts_each_sample_once(fills, setting2, designs2):
    # The Monte Carlo runs the gated arms before GSD: a replication that
    # passes the futility gate counts each (analysis, endpoint) sample once,
    # by (cell, arm), and fills its six slots in one call.
    report = harness._run_chunk(setting2.scenario, list(designs2.values()), setting2.seed, [0])
    assert report.arms["ggsd:0.5"].termination["futility"] == 0
    assert fills[0] == [Endpoint.PFS, setting2.scenario.stage1_cutoff, 4, None]
    samples = collections.Counter((ep, time) for ep, time, *_ in fills[1:])
    assert len(samples) == 5 and set(samples.values()) == {1}
    assert [f[2:] for f in fills[1:]] == [[8, 6]] * 5


def test_slot_tables_read_without_enum_hashing(monkeypatch, setting2, designs2):
    # The plan resolves every slot index, so no arm's snapshot load hashes an
    # enum; an analysis snapshot hashes only in `_censor`'s reads of the
    # per-endpoint TrialData columns, two per endpoint, and builds no dict.
    counts = collections.Counter()
    where = []
    enum_hash = enum.Enum.__hash__

    def counting_hash(self):
        counts[where[-1] if where else None] += 1
        return enum_hash(self)

    def inside(name, fn):
        def wrapped(*args, **kwargs):
            where.append(name)
            counts[name, "calls"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return wrapped

    monkeypatch.setattr(engine, "_load_snapshot", inside("load", engine._load_snapshot))
    monkeypatch.setattr(harness, "snapshot_at", inside("snapshot", harness.snapshot_at))
    monkeypatch.setattr(simdata, "_censor", inside("censor", simdata._censor))
    monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
    n_snapshots = 0
    for rep in range(3):
        snaps, fut = replication_inputs(setting2.scenario, setting2.seed, rep)
        n_snapshots += len(snaps) + 1
        for d in designs2.values():
            run_design(d, snaps, fut)
    assert counts["load", "calls"] > 0 and counts["snapshot", "calls"] == n_snapshots
    assert counts["load"] == 0
    assert counts["snapshot"] == 0
    assert counts["censor"] == 2 * counts["censor", "calls"] > 0


def test_benchmark_tracer_reads_the_snapshots(setting2, designs2):
    # perfbench's tracer wraps the harness's calls and counts slots from the
    # snapshots they return; a traced benchmark run fails if this breaks.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        run_monte_carlo(setting2.scenario, list(designs2.values()), 2, setting2.seed)
    finally:
        tracer.uninstall()
    fired = {span[0] for span in tracer.spans}
    # boundaries.compute fires only while cached_boundaries is cold.
    assert set(tracer_module.MC_LAYERS) - {"boundaries.compute"} <= fired
    assert tracer.counters["snapshot.calls"] == 6
    assert tracer.counters["snapshot.slots"] == 72
