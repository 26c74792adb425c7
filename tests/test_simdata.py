"""Trial generation, analysis scheduling, and survival statistics."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedgsd import simdata
from gatedgsd.combine import normal_score
from gatedgsd.config import build_designs, parse_config
from gatedgsd.engine import MissingSlotError, decide_design, run_design
from gatedgsd.futility import SELECTIONS, FutilityRule, select_population
from gatedgsd.harness import replication_inputs
from gatedgsd.multiplicity import Endpoint, Population, hochberg_intersection
from gatedgsd.numerics import find_root, norm_cdf
from gatedgsd.simdata import (
    AnalysisTrigger,
    ScenarioSpec,
    SchedulingError,
    TrialData,
    _censor,
    _logrank_slots,
    _slot_counts,
    cox_hazard_ratio,
    generate_trial,
    joint_slot,
    logrank_test,
    schedule_analyses,
    slot,
    snapshot_at,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"


def toy_spec(**overrides):
    base = dict(
        name="toy",
        sample_size=400,
        sub_prevalence=0.5,
        enroll_duration=24.0,
        stage1_cutoff=12.0,
        median_sub={Endpoint.PFS: 6.0, Endpoint.OS: 12.0},
        median_complement={Endpoint.PFS: 5.0, Endpoint.OS: 9.0},
        hr_sub={Endpoint.PFS: 0.7, Endpoint.OS: 0.7},
        hr_complement={Endpoint.PFS: 0.7, Endpoint.OS: 0.7},
        annual_dropout={Endpoint.PFS: 0.1, Endpoint.OS: 0.01},
        triggers=(
            AnalysisTrigger(Endpoint.PFS, 200),
            AnalysisTrigger(Endpoint.OS, 250),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_generation_deterministic_and_seed_sensitive():
    spec = toy_spec()
    a = generate_trial(spec, (11, 0))
    b = generate_trial(spec, (11, 0))
    c = generate_trial(spec, (11, 1))
    np.testing.assert_array_equal(a.enroll_time, b.enroll_time)
    np.testing.assert_array_equal(a.event_time[Endpoint.OS], b.event_time[Endpoint.OS])
    assert not np.array_equal(a.event_time[Endpoint.OS], c.event_time[Endpoint.OS])


def test_stage_split_and_prevalence():
    spec = toy_spec(sample_size=20000)
    trial = generate_trial(spec, (3, 0))
    stage = trial.stage(spec.stage1_cutoff)
    assert set(np.unique(stage)) == {1, 2}
    # uniform enrollment: about half the patients land in stage 1
    assert abs((stage == 1).mean() - 0.5) < 0.02
    assert abs(trial.in_subgroup.mean() - 0.5) < 0.02
    assert abs(trial.experimental.mean() - 0.5) < 0.02


def test_schedule_monotone_and_meets_targets():
    spec = toy_spec()
    trial = generate_trial(spec, (5, 2))
    times = schedule_analyses(trial, spec)
    assert len(times) == 2
    assert times[0] <= times[1]
    # tiny epsilon absorbs float round-off in calendar-time subtraction
    snap = snapshot_at(trial, times[0] + 1e-9, spec)
    assert snap.events[slot("pooled", Population.FULL, Endpoint.PFS)] >= 200


def test_schedule_clamps_to_the_previous_analysis():
    # An OS trigger met before the preceding PFS trigger opens its analysis
    # at the PFS analysis's time, not before it.
    spec = toy_spec(triggers=(AnalysisTrigger(Endpoint.PFS, 200), AnalysisTrigger(Endpoint.OS, 10)))
    trial = generate_trial(spec, (5, 2))
    times = schedule_analyses(trial, spec)
    assert simdata._observed_event_calendar_times(trial, Endpoint.OS)[9] < times[0]
    assert times[1] == times[0]


def test_unreachable_trigger_raises():
    # ScenarioSpec refuses a trigger above the sample size; one at it passes,
    # and dropout leaves this trial short of it.
    spec = toy_spec(triggers=(AnalysisTrigger(Endpoint.PFS, 400),))
    trial = generate_trial(spec, (5, 2))
    with pytest.raises(SchedulingError):
        schedule_analyses(trial, spec)


# case -> (toy_spec overrides, the error naming the field)
UNSIMULABLE_SPECS = {
    "map_without_os": (dict(hr_sub={Endpoint.PFS: 0.7}), r"hazard_ratios\.sub\.os: .*got None"),
    "dropout_without_pfs": (dict(annual_dropout={Endpoint.OS: 0.01}),
                            r"annual_dropout\.pfs: .*got None"),
    "none_map": (dict(median_complement=None), r"medians\.complement\.pfs: .*got None"),
    "no_trigger": (dict(triggers=()), r"triggers: expected at least one trigger"),
    "none_sample_size": (dict(sample_size=None), r"sample_size: expected an integer >= 2, got None"),
    "none_cutoff": (dict(stage1_cutoff=None), r"stage1_cutoff: expected a number >= 0, got None"),
}


@pytest.mark.parametrize("case", UNSIMULABLE_SPECS)
def test_spec_that_cannot_be_simulated_refused(case):
    # Each used to construct and then fail in `generate_trial` (KeyError or
    # TypeError) or in `schedule_analyses`, naming no field.
    overrides, message = UNSIMULABLE_SPECS[case]
    with pytest.raises(ValueError, match=message):
        toy_spec(**overrides)


def test_logrank_agrees_with_scipy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = 120
        arm = rng.random(n) < 0.5
        latent = rng.exponential(np.where(arm, 14.0, 10.0))
        cens = rng.uniform(2.0, 30.0, size=n)
        duration = np.minimum(latent, cens)
        status = latent <= cens
        z, p, n_ev = logrank_test(duration, status, arm)
        x = scipy.stats.CensoredData(
            duration[~arm][status[~arm]],
            right=duration[~arm][~status[~arm]])
        y = scipy.stats.CensoredData(
            duration[arm][status[arm]],
            right=duration[arm][~status[arm]])
        res = scipy.stats.logrank(x, y)
        assert abs(z) == pytest.approx(abs(res.statistic), abs=1e-8)
        assert 2.0 * min(p, 1.0 - p) == pytest.approx(res.pvalue, abs=1e-7)
        assert n_ev == int(status.sum())


def test_logrank_degenerate_inputs():
    d = np.array([1.0, 2.0, 3.0])
    assert logrank_test(d, np.zeros(3, bool), np.array([True, False, True])) == (0.0, 1.0, 0)
    z, p, _ = logrank_test(d, np.ones(3, bool), np.array([True, True, True]))
    assert (z, p) == (0.0, 1.0)


def test_logrank_p_uniform_under_null():
    """One-sided p is Uniform(0,1) under no treatment effect (KS < 0.02)."""
    rng = np.random.default_rng(20260826)
    ps = []
    for _ in range(4000):
        n = 80
        arm = rng.random(n) < 0.5
        latent = rng.exponential(10.0, size=n)
        cens = rng.uniform(5.0, 25.0, size=n)
        duration = np.minimum(latent, cens)
        status = latent <= cens
        ps.append(logrank_test(duration, status, arm)[1])
    ks = scipy.stats.kstest(ps, "uniform").statistic
    assert ks < 0.02


def test_cox_recovers_true_hazard_ratio():
    rng = np.random.default_rng(23)
    n = 40000
    arm = rng.random(n) < 0.5
    latent = rng.exponential(1.0, size=n) / np.where(arm, 0.7, 1.0)
    cens = rng.uniform(0.5, 4.0, size=n)
    duration = np.minimum(latent, cens)
    status = latent <= cens
    hr = cox_hazard_ratio(duration, status, arm)
    assert hr == pytest.approx(0.7, abs=0.03)
    # flipping the arm labels inverts the estimate
    inv = cox_hazard_ratio(duration, status, ~arm)
    assert inv == pytest.approx(1.0 / hr, rel=1e-6)


def test_cox_requires_events():
    with pytest.raises(ValueError):
        cox_hazard_ratio(np.array([1.0, 2.0]), np.zeros(2, bool), np.array([True, False]))


def test_snapshot_slot_consistency():
    spec = toy_spec()
    trial = generate_trial(spec, (9, 4))
    snap = snapshot_at(trial, 18.0, spec)
    for pop in Population:
        for ep in Endpoint:
            pooled = snap.events[slot("pooled", pop, ep)]
            split = (snap.events[slot("stage1", pop, ep)] + snap.events[slot("stage2", pop, ep)])
            assert pooled == split
    full = snap.events[slot("pooled", Population.FULL, Endpoint.PFS)]
    sub = snap.events[slot("pooled", Population.SUB, Endpoint.PFS)]
    assert sub <= full
    for p in snap.p:
        assert 0.0 <= p <= 1.0
    fut = snapshot_at(trial, 18.0, spec, with_hr=True)
    assert fut.hr_full is not None and fut.hr_full > 0
    assert fut.hr_sub is not None and fut.hr_sub > 0


def test_snapshot_earlier_time_has_fewer_events():
    spec = toy_spec()
    trial = generate_trial(spec, (2, 7))
    early = snapshot_at(trial, 10.0, spec)
    late = snapshot_at(trial, 20.0, spec)
    key = slot("pooled", Population.FULL, Endpoint.OS)
    assert early.events[key] < late.events[key]


# -- one sort per endpoint: the snapshot kernel against the per-slot path ----


def censored(trial, ep, time, mask):
    """(duration, status, experimental) of the selected enrolled patients."""
    enrolled = mask & (trial.enroll_time < time)
    return (*_censor(trial, ep, time, enrolled), trial.experimental[enrolled])


def reference_logrank(duration, status, experimental):
    """Per-slot logrank with its own sort: the path the snapshot kernel replaced."""
    total_events = int(status.sum())
    if total_events == 0 or experimental.all() or (~experimental).all():
        return 0.0, 1.0, total_events
    order = np.argsort(duration, kind="stable")
    d = duration[order]
    s = status[order].astype(np.float64)
    x = experimental[order].astype(np.float64)
    n = len(d)
    at_risk_total = n - np.arange(n)
    at_risk_exp = np.cumsum(x[::-1])[::-1]
    event_rows = s > 0
    t_ev = d[event_rows]
    uniq, inv = np.unique(t_ev, return_inverse=True)
    d_exp = np.bincount(inv, weights=x[event_rows], minlength=len(uniq))
    d_tot = np.bincount(inv, weights=np.ones(int(event_rows.sum())), minlength=len(uniq))
    first_idx = np.searchsorted(d, uniq, side="left")
    n_tot = at_risk_total[first_idx].astype(np.float64)
    n_exp = at_risk_exp[first_idx]
    expected = d_tot * n_exp / n_tot
    with np.errstate(invalid="ignore", divide="ignore"):
        var = d_tot * (n_exp / n_tot) * (1.0 - n_exp / n_tot) * (n_tot - d_tot) / np.maximum(n_tot - 1.0, 1.0)
    u = float(np.sum(d_exp - expected))
    v = float(np.sum(var))
    if v <= 0.0:
        return 0.0, 1.0, total_events
    z = -u / math.sqrt(v)
    return z, 1.0 - norm_cdf(z), total_events


def reference_slots(trial, time, spec):
    """{(cohort, population, endpoint): (z, p, events)}, one censor and sort per slot."""
    stage = trial.stage(spec.stage1_cutoff)
    cohorts = {"stage1": stage == 1, "stage2": stage == 2,
               "pooled": np.ones(len(trial), dtype=bool)}
    pops = {Population.FULL: np.ones(len(trial), dtype=bool),
            Population.SUB: trial.in_subgroup}
    return {(c, pop, ep): reference_logrank(*censored(trial, ep, time, cm & pm))
            for c, cm in cohorts.items() for pop, pm in pops.items() for ep in Endpoint}


def snapshot_matches_reference(trial, time, spec):
    """Largest |dz| of a snapshot against the reference; events must be equal."""
    snap = snapshot_at(trial, time, spec)
    ref = reference_slots(trial, time, spec)
    assert len(snap.events) == len(snap.z) == len(snap.p) == len(ref)
    assert [slot(*key) for key in ref] == list(range(12))  # key order is kept
    worst = 0.0
    for key, (z, p, events) in ref.items():
        j = slot(*key)
        assert snap.events[j] == events, key
        assert (j in snap.zero_event_slots) == (events == 0), key
        worst = max(worst, abs(snap.z[j] - z))
        assert snap.z[j] == pytest.approx(z, abs=1e-12), key
        assert snap.p[j] == pytest.approx(p, abs=1e-12), key
    return worst


def kernel_agreement(n_rep):
    """Max |dz| of every snapshot of settings 1-3, power and null passes."""
    worst = 0.0
    for name in ("setting1", "setting2", "setting3"):
        cfg = parse_config(CONFIG_DIR / f"{name}.yaml")
        for spec in (cfg.scenario, cfg.scenario.under_global_null()):
            for rep in range(n_rep):
                trial = generate_trial(spec, (cfg.seed, rep))
                for t in schedule_analyses(trial, spec):
                    worst = max(worst, snapshot_matches_reference(trial, t, spec))
                worst = max(worst, snapshot_matches_reference(trial, spec.stage1_cutoff, spec))
    return worst


def test_snapshot_kernel_matches_per_slot_path():
    assert kernel_agreement(n_rep=8) <= 1e-12


def hand_trial():
    """Ten patients; stage-1 cutoff at month 10 (patients 6-9 enroll after it).

    PFS: patient 0 (subgroup) has an event at duration 5, the very duration
    at which patient 1 (complement) drops out. Stage-2 subgroup patients are
    all experimental, and no stage-2 patient has an OS event.
    """
    enroll = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 11.0, 12.0, 13.0, 14.0])
    sub = np.array([1, 0, 1, 0, 1, 0, 1, 1, 0, 0], dtype=bool)
    exp_arm = np.array([1, 0, 0, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
    pfs = np.array([5.0, 30.0, 3.0, 8.0, 50.0, 7.0, 40.0, 2.0, 100.0, 100.0])
    pfs_drop = np.array([np.inf, 5.0] + [np.inf] * 8)
    os_ = np.array([9.0, 12.0, 6.0, 14.0, 60.0, 11.0, 90.0, 90.0, 90.0, 90.0])
    return TrialData(enroll, sub, exp_arm, {Endpoint.PFS: pfs, Endpoint.OS: os_},
                     {Endpoint.PFS: pfs_drop, Endpoint.OS: np.full(10, np.inf)})


def test_snapshot_kernel_hand_built_edges():
    spec = toy_spec(stage1_cutoff=10.0)
    trial = hand_trial()
    snap = snapshot_at(trial, 20.0, spec)
    snapshot_matches_reference(trial, 20.0, spec)
    # Tie split across slots: the dropout at 5 is still at risk at the event
    # at 5 in stage-1 F, and absent from stage-1 S.
    u = (0 - 1 / 2) + (1 - 3 / 5) + (0 - 2 / 3) + (1 - 1)
    v = 1 / 4 + 6 / 25 + 2 / 9
    assert snap.z[slot("stage1", Population.FULL, Endpoint.PFS)] == pytest.approx(
        -u / math.sqrt(v), abs=1e-12)
    assert snap.z[slot("stage1", Population.SUB, Endpoint.PFS)] == pytest.approx(
        (2 / 3) / math.sqrt(2 / 9), abs=1e-12)
    # Single-arm slot: one event, all experimental.
    key = slot("stage2", Population.SUB, Endpoint.PFS)
    assert (snap.z[key], snap.p[key], snap.events[key]) == (0.0, 1.0, 1)
    # Zero-event slots.
    for pop in Population:
        key = slot("stage2", pop, Endpoint.OS)
        assert (snap.z[key], snap.p[key], snap.events[key]) == (0.0, 1.0, 0)
        assert key in snap.zero_event_slots
    # At the stage-1 cutoff no stage-2 patient is enrolled: every stage-2 slot
    # is empty and the pooled slots are the stage-1 slots.
    cut = snapshot_at(trial, spec.stage1_cutoff, spec)
    snapshot_matches_reference(trial, spec.stage1_cutoff, spec)
    for pop in Population:
        for ep in Endpoint:
            stage2 = slot("stage2", pop, ep)
            assert (cut.z[stage2], cut.events[stage2]) == (0.0, 0)
            assert stage2 in cut.zero_event_slots
            for table in (cut.z, cut.p, cut.events):
                assert table[slot("pooled", pop, ep)] == table[slot("stage1", pop, ep)]
    # Nobody enrolled yet: every slot is empty.
    empty = snapshot_at(trial, 0.0, spec)
    assert len(empty.zero_event_slots) == 12 and set(empty.z) == {0.0}


# -- the reference route: the groups x event-times grid kernel ---------------
# The snapshot kernel counted each sample on a dense grid until it moved to
# one list of slot rows in duration order. The grid route is kept here as
# written then, apart from the reused per-thread buffers (plain arrays here),
# to check the list kernel bit for bit.


def grid_slot_weights(slot_cells) -> np.ndarray:
    """0/1 matrix that turns per-group counts into per-slot counts.

    `slot_cells` has one 0/1 row per slot over the cells. Group 2c is cell
    c's control arm and 2c + 1 its experimental arm. The kernel's counts
    stack two blocks of group rows (rows gone by each event time, then
    events at each time); the product stacks four blocks of slot rows: gone
    in both arms, gone in the experimental arm, events in both arms,
    experimental events.
    """
    cells = np.asarray(slot_cells, dtype=np.float64)
    per_slot = np.vstack([np.repeat(cells, 2, axis=1), np.kron(cells, (0.0, 1.0))])
    return np.kron(np.eye(2), per_slot)


def grid_group_counts(d, s, group, n_groups):
    """Per-group counts at the distinct event times of one sample: two blocks
    of `n_groups` rows over the event times, rows gone by each event time,
    then events at each time."""
    order = np.argsort(d)
    d, s, group = d[order], s[order], group[order]
    n = len(d)
    # A row's bucket counts the event times at which it is still at risk:
    # the distinct event times up to its own duration, ties included. Runs
    # of tied durations are marked at their first row, so all rows of a run
    # share one bucket and a group's rows in buckets 0..j are those gone by
    # event time j.
    new_run = np.ones(n, dtype=bool)
    np.not_equal(d[1:], d[:-1], out=new_run[1:])
    run_start = np.where(new_run, np.arange(n), 0)
    np.maximum.accumulate(run_start, out=run_start)
    bucket = np.zeros(n, dtype=np.intp)
    bucket[run_start[s]] = 1
    np.cumsum(bucket, out=bucket)
    width = int(bucket[-1]) + 1 if n else 1
    # Count rows per (group, bucket) and, below them, events per (group, time);
    # an event row's own time is the last one it is at risk at.
    index = group * width + bucket
    counts = np.bincount(np.concatenate([index, index[s] + n_groups * width - 1]),
                         minlength=2 * n_groups * width).reshape(2 * n_groups, width)
    np.cumsum(counts[:n_groups], axis=1, out=counts[:n_groups])
    return counts.astype(np.float64)


def grid_logrank_slots(counts, weights):
    """One-sided logrank (z, p, events) for every slot, off the grid."""
    n_slots, width = weights.shape[0] // 4, counts.shape[1]
    slot_counts = np.matmul(weights, counts)
    size = slot_counts[:2 * n_slots, -1:]
    at_risk = np.subtract(size, slot_counts[:2 * n_slots]).reshape(2, -1)
    died = slot_counts[2 * n_slots:].reshape(2, -1)
    runs = np.flatnonzero(died[0] > 0)
    ends = np.searchsorted(runs, np.arange(1, n_slots + 1) * width).tolist()
    n_tot, n_exp = at_risk.take(runs, axis=1)
    d_tot, d_exp = died.take(runs, axis=1)
    share = n_exp / n_tot
    terms = np.empty((3, len(runs)))
    np.subtract(d_exp, d_tot * n_exp / n_tot, out=terms[0])
    var = np.multiply(d_tot, share, out=terms[1])
    var *= 1.0 - share
    var *= n_tot - d_tot
    var /= np.maximum(n_tot - 1.0, 1.0)
    terms[2] = d_tot
    sizes = size.ravel().tolist()
    out = []
    for k, (lo, hi) in enumerate(zip([0] + ends, ends)):
        u, v, n_ev = np.add.reduce(terms[:, lo:hi], axis=1).tolist()
        n_ev, n_x = int(n_ev), sizes[n_slots + k]
        if n_ev == 0 or n_x == 0 or n_x == sizes[k] or v <= 0.0:
            out.append((0.0, 1.0, n_ev))
            continue
        z = -u / math.sqrt(v)
        out.append((z, 1.0 - norm_cdf(z), n_ev))
    return out


def grid_breslow_hr(counts):
    """The Cox HR (Breslow ties) of one slot's four weighted grid rows, None
    where it has no event."""
    times = np.flatnonzero(counts[2])
    if not len(times):
        return None
    gone, gone_exp, d, d_exp = counts.take(times, axis=1)
    n_exp = counts[1, -1] - gone_exp
    n_ctl = counts[0, -1] - gone - n_exp
    has_ctl = n_ctl > 0
    u_lo = float(np.add.reduce(d_exp[has_ctl]))
    both = has_ctl & (n_exp > 0)
    d, ratio = d[both], n_ctl[both] / n_exp[both]
    u_hi = u_lo - float(np.add.reduce(d))
    if u_lo == 0.0 or u_hi == 0.0:
        return 1.0 if u_lo == u_hi else (0.0 if u_lo == 0.0 else math.inf)

    def score(beta):
        share = ratio * math.exp(-beta)
        share += 1.0
        np.reciprocal(share, out=share)
        expected = d * share
        u = float(np.add.reduce(expected))
        return u_lo - u, float(np.add.reduce(expected * share)) - u

    lo = math.log(u_lo / float(np.add.reduce(d / ratio))) - 1.0
    hi = math.log(float(np.add.reduce(d * ratio)) / -u_hi) + 1.0
    return math.exp(find_root(score, lo, hi, u_lo, u_hi, 0.0, tol=simdata._COX_TOL))


# The six (cohort, population) rows of one endpoint over the cells stage-1
# complement, stage-1 subgroup, stage-2 complement, stage-2 subgroup: stage 1
# F and S, stage 2 F and S, pooled F and S. F and S over (subgroup, arm).
GRID_SIX_SLOTS = grid_slot_weights([(1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1),
                                    (1, 1, 1, 1), (0, 1, 0, 1)])
GRID_PAIR = grid_slot_weights([(1, 1), (0, 1)])
GRID_ONE_SLOT = grid_slot_weights([[1]])


def six_slot_tables(trial, time, spec):
    """(events, z, p) in slot order from one 6-slot grid call per endpoint on
    the endpoint's whole censored, stably sorted sample."""
    enrolled = trial.enroll_time < time
    cell = 2 * (trial.enroll_time >= spec.stage1_cutoff) + trial.in_subgroup
    group = (2 * cell + trial.experimental)[enrolled]
    per_endpoint = []
    for ep in Endpoint:
        dur, st_ = _censor(trial, ep, time, enrolled)
        order = np.argsort(dur, kind="stable")
        counts = grid_group_counts(dur[order], st_[order], group[order], 8)
        per_endpoint.append(grid_logrank_slots(counts, GRID_SIX_SLOTS))
    rows = [per_endpoint[e][k] for k in range(6) for e in range(len(Endpoint))]
    z, p, events = zip(*rows)
    return events, z, p


def random_trial(seed, n, prevalence, tie_step):
    """n patients whose enrollment, event and dropout times are rounded to
    `tie_step` months, so that durations tie within and across cells."""
    rng = np.random.default_rng(seed)

    def rounded(x):
        return np.round(x / tie_step) * tie_step

    enroll = rounded(rng.uniform(0.0, 12.0, n))
    event = {ep: rounded(rng.exponential(8.0, n)) for ep in Endpoint}
    dropout = {ep: np.where(rng.random(n) < 0.3, rounded(rng.exponential(10.0, n)), np.inf)
               for ep in Endpoint}
    return TrialData(enroll, rng.random(n) < prevalence, rng.random(n) < 0.5, event, dropout)


READS = ("pooled block", "stage-wise block", "endpoint_scores",
         "events", "z", "p", "zero_event_slots", "scores")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 80),
    prevalence=st.sampled_from((0.0, 0.03, 0.5, 0.97, 1.0)),
    tie_step=st.sampled_from((0.5, 1.0, 2.0)),
    cutoff=st.sampled_from(("zero", "before-events", "mid", "late")),
    first=st.sampled_from(READS),
    second=st.sampled_from(READS),
    endpoint=st.integers(0, len(Endpoint) - 1),
)
@example(seed=3, n=60, prevalence=0.5, tie_step=0.5, cutoff="mid", first="pooled block",
         second="stage-wise block", endpoint=0)
@example(seed=3, n=60, prevalence=0.5, tie_step=0.5, cutoff="late", first="stage-wise block",
         second="pooled block", endpoint=1)
def test_blocks_match_one_six_slot_call_in_any_read_order(seed, n, prevalence, tie_step,
                                                           cutoff, first, second, endpoint):
    """Whichever block is read first, every slot has the bits of one 6-slot
    call on (cell, arm) counts: a pooled pair off (subgroup, arm) counts, as
    the block read returned it, and every slot of a stage-wise read, which
    fills all six. "late" is after accrual, where a snapshot reads the
    columns whole."""
    trial = random_trial(seed, n, prevalence, tie_step)
    spec = toy_spec(stage1_cutoff=6.0)
    first_event = min(float(np.min(trial.enroll_time + trial.event_time[ep])) for ep in Endpoint)
    time = {"zero": 0.0, "before-events": max(0.0, first_event - tie_step / 2),
            "mid": 10.0, "late": 40.0}[cutoff]
    snap = snapshot_at(trial, time, spec)
    returned = []  # (slot, (z, p, events)) as each block read returned it
    for read in (first, second):
        if read.endswith("block"):
            stats = snap.block(endpoint, read == "pooled block")
            returned += [(j, stat) for j, stat in enumerate(stats) if stat is not None]
        elif read == "endpoint_scores":
            snap.endpoint_scores(endpoint)
        else:
            getattr(snap, read)
    events, z, p = six_slot_tables(trial, time, spec)
    assert snap.events == events
    assert [x.hex() for x in snap.z] == [x.hex() for x in z]
    assert [x.hex() for x in snap.p] == [x.hex() for x in p]
    assert snap.scores[:8] == tuple(map(normal_score, p[:8]))
    for j, (z_j, p_j, events_j) in returned:
        assert (z_j.hex(), p_j.hex(), events_j) == (z[j].hex(), p[j].hex(), events[j])
    if cutoff in ("zero", "before-events"):
        assert snap.events == (0,) * 12 and snap.zero_event_slots == tuple(range(12))


def bits(stats):
    return [None if x is None else (x[0].hex(), x[1].hex(), x[2]) for x in stats]


def hex_or_none(hr):
    return None if hr is None else hr.hex()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    prevalence=st.sampled_from((0.0, 0.03, 0.97, 1.0)),
    tie_step=st.sampled_from((0.5, 1.0, 2.0)),
    time=st.sampled_from((0.0, 3.0, 6.0, 10.0, 40.0)),
)
@example(seed=0, n=1, prevalence=0.0, tie_step=0.5, time=0.0)
def test_slot_list_kernel_matches_the_grid_bit_for_bit(seed, n, prevalence, tie_step, time):
    """The slot-list kernel gives every slot of a stage-wise or pooled fill
    the (z, p, events) bits of the grid route, the futility gate the same
    hazard ratios, and `logrank_test` and `cox_hazard_ratio` the grid's
    one-slot values. Time 0 leaves the samples empty."""
    trial = random_trial(seed, n, prevalence, tie_step)
    spec = toy_spec(stage1_cutoff=6.0)
    rows = trial.enroll_time < time
    cells, pairs = trial.cell_group(spec.stage1_cutoff)[rows], trial.group[rows]
    for ep in Endpoint:
        dur, st_ = _censor(trial, ep, time, rows)
        for group, member, n_groups, weights in ((cells, simdata._SIX_SLOTS, 8, GRID_SIX_SLOTS),
                                                 (pairs, simdata._POOLED_PAIR, 4, GRID_PAIR)):
            want = grid_logrank_slots(grid_group_counts(dur, st_, group, n_groups), weights)
            assert bits(_logrank_slots(*_slot_counts(dur, st_, group, member))) == bits(want)
        x = trial.experimental[rows]
        one = grid_group_counts(dur, st_, x.astype(np.intp), 2)
        assert bits([logrank_test(dur, st_, x)]) == bits(grid_logrank_slots(one, GRID_ONE_SLOT))
        want_hr = grid_breslow_hr(GRID_ONE_SLOT @ one)
        if want_hr is None:
            with pytest.raises(ValueError):
                cox_hazard_ratio(dur, st_, x)
        else:
            assert cox_hazard_ratio(dur, st_, x).hex() == want_hr.hex()
    stage1 = (trial.enroll_time < spec.stage1_cutoff) & rows
    dur, st_ = _censor(trial, Endpoint.PFS, time, stage1)
    pair = GRID_PAIR @ grid_group_counts(dur, st_, trial.group[stage1], 4)
    fut = snapshot_at(trial, time, spec, with_hr=True)
    assert [hex_or_none(fut.hr_full), hex_or_none(fut.hr_sub)] == [
        hex_or_none(grid_breslow_hr(pair[0::2])), hex_or_none(grid_breslow_hr(pair[1::2]))]


def test_futility_hazard_ratios_bit_identical():
    cfg = parse_config(CONFIG_DIR / "setting2.yaml")
    spec = cfg.scenario
    for rep in range(10):
        trial = generate_trial(spec, (cfg.seed, rep))
        snap = snapshot_at(trial, spec.stage1_cutoff, spec, with_hr=True)
        stage1 = trial.stage(spec.stage1_cutoff) == 1
        full = cox_hazard_ratio(*censored(trial, Endpoint.PFS, spec.stage1_cutoff, stage1))
        sub = cox_hazard_ratio(*censored(trial, Endpoint.PFS, spec.stage1_cutoff,
                                         stage1 & trial.in_subgroup))
        assert snap.hr_full == full and snap.hr_sub == sub
        # The futility snapshot computes no logrank slot.
        assert snap.events == snap.z == snap.p == () and snap.zero_event_slots == ()


def test_score_table_layout():
    # Entries 0-7 score the stage-wise slots in slot order; entries 8-11 score
    # each stage's Hochberg intersection of F and S, at joint_slot.
    assert sorted(joint_slot(c, ep) for c in ("stage1", "stage2") for ep in Endpoint) == [
        8, 9, 10, 11]
    for name in ("setting1", "setting2", "setting3"):
        cfg = parse_config(CONFIG_DIR / f"{name}.yaml")
        for spec in (cfg.scenario, cfg.scenario.under_global_null()):
            for rep in range(3):
                snaps, _ = replication_inputs(spec, cfg.seed, rep)
                for snap in snaps:
                    assert len(snap.scores) == 12
                    for j in range(8):
                        assert snap.scores[j] == normal_score(snap.p[j])
                    for c in ("stage1", "stage2"):
                        for ep in Endpoint:
                            p_full, p_sub = (snap.p[slot(c, pop, ep)] for pop in Population)
                            assert snap.scores[joint_slot(c, ep)] == normal_score(
                                hochberg_intersection(p_full, p_sub))


def test_zero_event_slots_follow_events():
    spec = toy_spec()
    trial = generate_trial(spec, 3)
    snap = snapshot_at(trial, 20.0, spec)
    assert snap.zero_event_slots == tuple(j for j, n in enumerate(snap.events) if n == 0)


# -- order-free counts and the futility gate's one Cox fit ---------------------


def shuffled(trial, seed):
    """The same patients in another order."""
    perm = np.random.default_rng(seed).permutation(len(trial))
    return TrialData(trial.enroll_time[perm], trial.in_subgroup[perm], trial.experimental[perm],
                     {ep: t[perm] for ep, t in trial.event_time.items()},
                     {ep: t[perm] for ep, t in trial.dropout_time.items()})


def hr_bits(snap):
    return [hex_or_none(hr) for hr in (snap.hr_full, snap.hr_sub)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 80),
    prevalence=st.sampled_from((0.03, 0.5, 0.97)),
    tie_step=st.sampled_from((0.5, 1.0, 2.0)),
    time=st.sampled_from((6.0, 10.0, 40.0)),
)
def test_snapshots_do_not_depend_on_patient_order(seed, n, prevalence, tie_step, time):
    """Tied rows may be sorted in any order: every block, table, score and
    futility hazard ratio keeps its bits when the patients are shuffled."""
    trial = random_trial(seed, n, prevalence, tie_step)
    other = shuffled(trial, seed)
    spec = toy_spec(stage1_cutoff=6.0)
    a, b = snapshot_at(trial, time, spec), snapshot_at(other, time, spec)
    for e in range(len(Endpoint)):
        for pooled in (True, False):
            assert bits(a.block(e, pooled)) == bits(b.block(e, pooled))
        assert a.endpoint_scores(e) == b.endpoint_scores(e)
    assert a.events == b.events
    assert [x.hex() for x in a.z + a.p] == [x.hex() for x in b.z + b.p]
    assert [(q.hex(), c) for q, c in a.scores] == [(q.hex(), c) for q, c in b.scores]
    assert hr_bits(a) == hr_bits(b) == [None, None]
    assert (hr_bits(snapshot_at(trial, time, spec, with_hr=True))
            == hr_bits(snapshot_at(other, time, spec, with_hr=True)))


def with_silent_arm(trial, silent):
    """The trial with no PFS event in one arm (None: as it is)."""
    if silent is not None:
        no_event = trial.experimental == (silent == "experimental")
        trial.event_time[Endpoint.PFS] = np.where(no_event, 1e6, trial.event_time[Endpoint.PFS])
    return trial


def check_futility_decision(trial, time, spec, design):
    """A gated arm's futility decision is `select_population` on the futility
    snapshot's hazard ratios; with a population that has no stage-1 PFS
    event, the gated arm raises."""
    fsnap = snapshot_at(trial, time, spec, with_hr=True)
    snaps = [snapshot_at(trial, time, spec)] * design.n_analyses
    if fsnap.hr_full is None or fsnap.hr_sub is None:
        with pytest.raises(MissingSlotError):
            run_design(design, snaps, fsnap)
        return
    trace = run_design(design, snaps, fsnap)
    assert trace.futility == select_population(fsnap.hr_full, fsnap.hr_sub, design.futility)


SMALL_TRIALS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 80),
    prevalence=st.sampled_from((0.0, 0.03, 0.5, 0.97, 1.0)),
    tie_step=st.sampled_from((0.001, 0.5, 1.0, 2.0)),
    time=st.sampled_from((3.0, 6.0, 10.0, 40.0)),
    silent=st.sampled_from((None, "control", "experimental")),
)
# A finite estimate on which an unguarded Newton from log HR = 0 overflows to NaN.
OVERFLOWED = dict(seed=75, n=40, prevalence=0.97, tie_step=0.5, time=10.0, silent=None)


@settings(max_examples=150, deadline=None)
@given(**SMALL_TRIALS)
@example(**OVERFLOWED)
def test_futility_gate_matches_newton_hazard_ratios(seed, n, prevalence, tie_step, time, silent):
    trial = with_silent_arm(random_trial(seed, n, prevalence, tie_step), silent)
    check_futility_decision(trial, time, toy_spec(stage1_cutoff=6.0),
                            gated_design("setting2"))


def risk_table(dur, status, experimental):
    """Per distinct event time, row by row: control and experimental rows at
    risk, events, experimental events."""
    times = np.unique(dur[status])[:, None]
    at_risk, died = dur >= times, status & (dur == times)
    return ((at_risk & ~experimental).sum(1), (at_risk & experimental).sum(1),
            died.sum(1), (died & experimental).sum(1))


def bisected_log_hr(dur, status, experimental, bound=50.0):
    """The log HR where the Breslow score changes sign, by bisection on
    [-bound, bound]: -inf or inf where the score keeps one sign there, 0 where
    it is zero at both ends (no event time has both arms at risk)."""
    n_ctl, n_exp, d, d_exp = (x.astype(float) for x in risk_table(dur, status, experimental))

    def score(beta):
        w = n_exp * math.exp(beta)
        return float(np.sum(d_exp - d * w / (n_ctl + w)))

    lo, hi = -bound, bound
    u_lo, u_hi = score(lo), score(hi)
    if u_lo == u_hi == 0.0:
        return 0.0
    if u_lo <= 0.0:
        return -math.inf
    if u_hi >= 0.0:
        return math.inf
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


@settings(max_examples=150, deadline=None)
@given(**SMALL_TRIALS)
@example(**OVERFLOWED)
def test_cox_fit_matches_score_bisection(seed, n, prevalence, tie_step, time, silent):
    """The futility snapshot's hazard ratios are where the score changes sign
    (to 1e-12 in log HR), or the limit of a monotone likelihood, 0 or inf, or
    1 where the likelihood is flat. None only where a population has no
    event, and `cox_hazard_ratio` gives the same bits on its own sample."""
    trial = with_silent_arm(random_trial(seed, n, prevalence, tie_step), silent)
    spec = toy_spec(stage1_cutoff=6.0)
    snap = snapshot_at(trial, time, spec, with_hr=True)
    stage1 = trial.enroll_time < spec.stage1_cutoff
    for hr, rows in ((snap.hr_full, stage1), (snap.hr_sub, stage1 & trial.in_subgroup)):
        sample = censored(trial, Endpoint.PFS, time, rows)
        if not sample[1].any():
            assert hr is None
            continue
        assert cox_hazard_ratio(*sample).hex() == hr.hex()
        want = bisected_log_hr(*sample)
        if math.isinf(want) or want == 0.0:
            assert hr == math.exp(want)
        else:
            assert abs(math.log(hr) - want) <= 1e-12


@functools.cache
def gated_design(name):
    """The first gated arm of a bundled setting."""
    return next(d for d in build_designs(parse_config(CONFIG_DIR / f"{name}.yaml"))
                if d.futility is not None)


@pytest.mark.parametrize("silent", ("control", "experimental"))
def test_futility_gate_with_a_monotone_likelihood(silent):
    """No stage-1 PFS event in one arm: the Cox estimate is the limit of the
    likelihood, 0 or inf, and the gate compares it with the thresholds."""
    trial = with_silent_arm(random_trial(7, 80, 0.5, 0.5), silent)
    spec = toy_spec(stage1_cutoff=6.0)
    snap = snapshot_at(trial, 10.0, spec, with_hr=True)
    want = 0.0 if silent == "experimental" else math.inf
    assert snap.hr_full == snap.hr_sub == want
    check_futility_decision(trial, 10.0, spec, gated_design("setting2"))


def test_futility_gate_on_the_bundled_settings():
    """Every arm of every bundled setting gates by `select_population` on its
    replication's futility hazard ratios (GSD has no gate)."""
    for name in ("setting1", "setting2", "setting3"):
        cfg = parse_config(CONFIG_DIR / f"{name}.yaml")
        designs = build_designs(cfg)
        for spec in (cfg.scenario, cfg.scenario.under_global_null()):
            for rep in range(20):
                snaps, fsnap = replication_inputs(spec, cfg.seed, rep)
                for d in designs:
                    want = d.futility and select_population(fsnap.hr_full, fsnap.hr_sub,
                                                            d.futility)
                    assert run_design(d, snaps, fsnap).futility == want, (name, rep, d.label)


# One event time's (control rows at risk, experimental rows at risk, control
# events, experimental events), events no more than the rows at risk.
EVENT_TIME = st.tuples(st.integers(0, 30), st.integers(0, 30)).flatmap(
    lambda rows: st.tuples(st.just(rows[0]), st.just(rows[1]), st.integers(0, min(rows[0], 3)),
                           st.integers(0, min(rows[1], 3))))


def as_counts(times):
    """`_slot_counts`' columns of one slot from its event times' rows and
    events; times with no event are dropped."""
    cols = [(c + x, x, dc + dx, dx) for c, x, dc, dx in times if dc + dx]
    return np.array(cols, dtype=float).T.reshape(4, len(cols))


# Limits of the likelihood: no experimental event while a control row is at
# risk (HR 0), no control event while an experimental row is (HR inf), and no
# event time with both arms at risk (flat, HR 1).
HR_ZERO, HR_INF, HR_FLAT = [(5, 5, 2, 0), (3, 2, 1, 0)], [(5, 5, 0, 2), (0, 4, 0, 1)], \
    [(4, 0, 2, 0), (0, 3, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(full=st.lists(EVENT_TIME, max_size=8), sub=st.lists(EVENT_TIME, max_size=8),
       thetas=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
       near=st.tuples(st.booleans(), st.booleans()),
       delta=st.tuples(*[st.floats(1e-11, 1e-9).flatmap(lambda x: st.sampled_from((x, -x)))] * 2))
@example(full=HR_ZERO, sub=HR_INF, thetas=(1.0, 1.0), near=(False, False), delta=(0.0, 0.0))
@example(full=HR_FLAT, sub=HR_FLAT, thetas=(1.0, 1.0), near=(False, False), delta=(0.0, 0.0))
@example(full=HR_FLAT, sub=HR_ZERO, thetas=(1.5, 0.5), near=(False, False), delta=(0.0, 0.0))
def test_futility_sign_matches_the_fitted_comparison(full, sub, thetas, near, delta):
    """The futility snapshot's answers, the sign of each population's score
    at log theta, select as `select_population` on the fitted hazard ratios
    does. With `near`, theta sits within 1e-9 of the fitted root in log HR
    (where the root is finite); a limit (0, inf, flat 1) is compared as it
    is, and a population with no event has no answer."""
    counts = as_counts(full), as_counts(sub)
    hrs = [simdata._breslow_hr(c) for c in counts]
    thetas = [hr * math.exp(dx) if close and hr is not None and 0.0 < hr < math.inf
              and hr != 1.0 else theta for hr, theta, close, dx in zip(hrs, thetas, near, delta)]
    snap = object.__new__(simdata.FutilitySnapshot)
    snap._counts, snap._below = counts, {}
    below = snap.below(FutilityRule(*thetas))
    if None in hrs:
        assert below is None
    else:
        assert SELECTIONS[below] is select_population(*hrs, FutilityRule(*thetas)).selection


def test_monte_carlo_gate_fits_no_hazard_ratio(monkeypatch):
    """`decide_design` answers the gate by score sign, without a Cox fit;
    a trace (`run_design`) fits the two hazard ratios once per snapshot."""
    fits = []
    fit = simdata._breslow_hr
    monkeypatch.setattr(simdata, "_breslow_hr", lambda counts: fits.append(1) or fit(counts))
    cfg = parse_config(CONFIG_DIR / "setting2.yaml")
    designs = build_designs(cfg)
    for spec in (cfg.scenario, cfg.scenario.under_global_null()):
        for rep in range(5):
            snaps, fsnap = replication_inputs(spec, cfg.seed, rep)
            for d in designs:
                decide_design(d, snaps, fsnap)
            assert not fits
            for d in designs:
                run_design(d, snaps, fsnap)
            assert len(fits) == 2
            fits.clear()


@pytest.mark.parametrize("prevalence, time", [(0.0, 10.0), (0.5, 0.5)])
def test_gate_without_a_stage1_event_raises(prevalence, time):
    """A population with no stage-1 PFS event (S with no subgroup row, or
    both before any event) has no hazard ratio and no answer, and a gated
    arm raises `MissingSlotError`, simulated or traced."""
    trial = random_trial(11, 60, prevalence, 0.5)
    spec = toy_spec(stage1_cutoff=6.0)
    fsnap = snapshot_at(trial, time, spec, with_hr=True)
    design = gated_design("setting2")
    assert fsnap.hr_sub is None and fsnap.below(design.futility) is None
    snaps = [snapshot_at(trial, time, spec)] * design.n_analyses
    for decide in (decide_design, run_design):
        with pytest.raises(MissingSlotError, match=r"^stage-1 futility hazard ratios "
                                                   r"\(HR\(F\), HR\(S\)\) are required$"):
            decide(design, snaps, fsnap)
