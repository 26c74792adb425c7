"""Trial data simulation and analysis-time summary statistics.

Patients enroll uniformly over the accrual window, are randomized 1:1, and
carry independent latent exponential event and dropout times per endpoint.
Snapshots censor at the analysis cutoff and produce cohort-wise logrank
p-values, and the futility gate's answer from the stage-1 Cox score.

A snapshot holds 12 slots, 3 cohorts (stage 1, stage 2, pooled) x 2
populations x 2 endpoints, as tuples in one fixed order; `slot` gives a
statistic's index and is the one place that knows the layout. Every patient
sits in one of four stage x subgroup cells, and each (cohort, population)
row is a union of cells.

A snapshot computes on demand. `snapshot_at` keeps the enrolled rows at
the cutoff (all of them, without a gather, once accrual is over); each
patient's (subgroup, arm) and (cell, arm) groups are computed once per
trial (`TrialData.group`, `TrialData.cell_group`). When
`AnalysisSnapshot.block(e, pooled)` fills one of endpoint e's blocks, its
enrolled rows are censored and counted by one kernel call
(`_slot_counts`). The kernel sorts the rows by duration once and lists
them slot by slot, so each slot's rows are one contiguous run of the list
in duration order, about 3n entries for a six-slot fill of n rows. At an
event row, the slot's rows at risk are its run from that row on, and the
experimental ones come from one cumsum of the arm flags. A sample with no
tied durations (checked once) has one event per event row; with ties, a
slot's tied event rows collapse into one event time, at risk from the
tie's first row. Nothing is held per group and event time. The groups are
those the reader needs: a pooled pair (F and S) lists the rows by
(subgroup, arm), four groups; a stage-wise block (stage 1 and stage 2, F
and S) by (cell, arm), eight groups, and that one call fills all six
slots, the pooled pair included. The Monte Carlo runs the gated arms,
which read stage-wise blocks, before GSD, which reads pooled pairs, so a
replication counts each sample once. The counts depend only on the rows,
not on the order of tied ones, so the sort need not be stable. They are
exact integers, and each slot's sums are the same additions in the same
order whichever call fills it, so every slot has the same bits in any read
order. Reading a whole table fills every block.

The futility gate's snapshot (`FutilitySnapshot`) computes no slots. It
counts its stage-1 PFS rows by (subgroup, arm) the same way, once, and
answers the gate from those counts by the sign of each population's Cox
score at log theta (`_hr_below`); the hazard ratios are fitted only when
read, by `_breslow_hr`, the one Cox fit. The fit is exact about a monotone
or flat likelihood, and brackets a finite root in an interval whose ends
have known score signs, so it evaluates the score only inside; it returns
no NaN, and like the counts, its bits do not depend on patient order.

`AnalysisSnapshot.scores` is the normal-score table the gated designs
combine: `combine.normal_score` of the eight stage-wise slots, then of each
stage's Hochberg intersection of F and S (`joint_slot`). It is the same for
every scenario, and `endpoint_scores(e)` fills it per endpoint on first
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .combine import normal_score
from .multiplicity import Endpoint, Population, hochberg_intersection
from .numerics import find_root, norm_cdf
from .rules import COUNT, DROPOUT, NONNEGATIVE, POSITIVE, SAMPLE_SIZE, UNIT, refuse

__all__ = [
    "ScenarioSpec",
    "AnalysisTrigger",
    "TrialData",
    "AnalysisSnapshot",
    "FutilitySnapshot",
    "SchedulingError",
    "generate_trial",
    "schedule_analyses",
    "snapshot_at",
    "slot",
    "joint_slot",
]

LN2 = math.log(2.0)
# Cox fits: the width in log HR of the bracket `find_root` closes.
_COX_TOL = 1e-14


@dataclass(frozen=True)
class AnalysisTrigger:
    """Pooled full-population event target that opens one analysis."""

    endpoint: Endpoint
    events: int


# The scenario's value rules, each with its field's path under `scenario:` in
# a config: the scalars, then the per-endpoint maps (path + ".pfs" or ".os").
SCENARIO_SCALARS = (("sample_size", SAMPLE_SIZE), ("sub_prevalence", UNIT),
                    ("enroll_duration", POSITIVE), ("stage1_cutoff", NONNEGATIVE))
SCENARIO_MAPS = (("median_sub", "medians.sub", POSITIVE),
                 ("median_complement", "medians.complement", POSITIVE),
                 ("hr_sub", "hazard_ratios.sub", POSITIVE),
                 ("hr_complement", "hazard_ratios.complement", POSITIVE),
                 ("annual_dropout", "annual_dropout", DROPOUT))


def scenario_problems(fields: Mapping[str, object], skip_none: bool = False) -> List[Tuple[str, str]]:
    """(path under `scenario:`, reason) for each of `fields`, ScenarioSpec's
    fields by name, that the tables above refuse (a value missing from a map
    is None), no trigger, and each trigger whose event count is below 1,
    below its endpoint's previous trigger or above the sample size. With
    `skip_none`, None, a value or trigger already refused, is skipped, and
    so is an empty trigger list."""
    out = [(key, rule(fields.get(key), skip_none)) for key, rule in SCENARIO_SCALARS]
    out += [(f"{path}.{ep.value}", r) for key, path, rule in SCENARIO_MAPS for ep in _ENDPOINTS
            if (r := rule((fields.get(key) or {}).get(ep), skip_none))]
    if not (skip_none or fields.get("triggers")):
        out.append(("triggers", "expected at least one trigger"))
    n = fields.get("sample_size")
    n = None if SAMPLE_SIZE(n) else n
    last: Dict[Endpoint, int] = {}  # each endpoint's previous event target
    for i, tr in enumerate(fields.get("triggers") or ()):
        if tr is None:
            out.append((f"triggers[{i}]", None if skip_none else "expected a trigger, got None"))
            continue
        prev = last.get(tr.endpoint, 0)
        reason = COUNT(tr.events)
        if not reason and tr.events < prev:
            reason = (f"expected at least {prev}, the previous {tr.endpoint.value} trigger, "
                      f"got {tr.events}")
        elif not reason and n is not None and tr.events > n:
            reason = f"expected at most {n}, the sample size, got {tr.events}"  # one event each
        elif not reason:
            last[tr.endpoint] = tr.events
        out.append((f"triggers[{i}].events", reason))
    return [(path, reason) for path, reason in out if reason]


@dataclass(frozen=True)
class ScenarioSpec:
    """Simulation truth: enrollment, event-time, and scheduling parameters.
    Raises ValueError for what `scenario_problems` refuses."""

    name: str
    sample_size: int
    sub_prevalence: float
    enroll_duration: float  # months
    stage1_cutoff: float  # calendar months; enrollment before this is stage 1
    median_sub: Dict[Endpoint, float]
    median_complement: Dict[Endpoint, float]
    hr_sub: Dict[Endpoint, float]
    hr_complement: Dict[Endpoint, float]
    annual_dropout: Dict[Endpoint, float]
    triggers: Tuple[AnalysisTrigger, ...]

    def __post_init__(self):
        refuse(scenario_problems(vars(self)))

    def under_global_null(self) -> "ScenarioSpec":
        """Copy with every hazard ratio forced to 1 (FWER runs)."""
        ones = {ep: 1.0 for ep in Endpoint}
        return replace(self, name=f"{self.name}-null", hr_sub=ones, hr_complement=dict(ones))


class TrialData:
    """Column-oriented patient records for one simulated trial.

    `group` is each patient's (subgroup, arm) group, 2 * in_subgroup + arm,
    and `last_enroll` the last enrollment time, both computed once per
    trial; `cell_group` keeps the (cell, arm) groups of the last stage-1
    cutoff asked for.
    """

    def __init__(self, enroll_time, in_subgroup, experimental, event_time, dropout_time):
        self.enroll_time = enroll_time
        self.in_subgroup = in_subgroup
        self.experimental = experimental
        self.event_time = event_time  # {Endpoint: latent times from enrollment}
        self.dropout_time = dropout_time
        self.group = 2 * in_subgroup + experimental
        self.last_enroll = enroll_time.max(initial=-math.inf)
        self._cells = (None, None)  # (stage-1 cutoff, its (cell, arm) groups)

    def __len__(self) -> int:
        return len(self.enroll_time)

    def stage(self, cutoff: float) -> np.ndarray:
        """Stage labels: 1 for enrollment strictly before the cutoff."""
        return np.where(self.enroll_time < cutoff, 1, 2)

    def cell_group(self, cutoff: float) -> np.ndarray:
        """Each patient's (cell, arm) group, 2 * cell + arm, with cells as
        in `_STAGE_CELLS`: 2 * (enrolled at or after `cutoff`) + in_subgroup."""
        if self._cells[0] != cutoff:
            self._cells = cutoff, self.group + 4 * (self.enroll_time >= cutoff)
        return self._cells[1]

    def to_rows(self, cutoff: float) -> List[Dict[str, float]]:
        stage = self.stage(cutoff)
        rows = []
        for i in range(len(self)):
            rows.append({
                "enroll_time": float(self.enroll_time[i]),
                "stage": int(stage[i]),
                "in_subgroup": bool(self.in_subgroup[i]),
                "arm": "experimental" if self.experimental[i] else "control",
                "pfs_time": float(self.event_time[Endpoint.PFS][i]),
                "os_time": float(self.event_time[Endpoint.OS][i]),
                "pfs_dropout": float(self.dropout_time[Endpoint.PFS][i]),
                "os_dropout": float(self.dropout_time[Endpoint.OS][i]),
            })
        return rows


def generate_trial(spec: ScenarioSpec, seed) -> TrialData:
    """Simulate one trial; deterministic given (spec, seed)."""
    rng = np.random.default_rng(seed)
    n = spec.sample_size
    enroll = rng.uniform(0.0, spec.enroll_duration, size=n)
    in_sub = rng.random(n) < spec.sub_prevalence
    exp_arm = rng.random(n) < 0.5
    trial = TrialData(enroll, in_sub, exp_arm, {}, {})
    for ep in Endpoint:
        # Hazard per (subgroup, arm) group: baseline, times the HR in the
        # experimental arm.
        base = (LN2 / spec.median_complement[ep], LN2 / spec.median_sub[ep])
        hr = (spec.hr_complement[ep], spec.hr_sub[ep])
        hazard = np.array([b * h for b, hr_b in zip(base, hr) for h in (1.0, hr_b)])
        trial.event_time[ep] = rng.exponential(1.0, size=n) / hazard[trial.group]
        # the monthly hazard of the annual rate; not positive at rate 0
        mu = -math.log(1.0 - spec.annual_dropout[ep]) / 12.0
        if mu > 0:
            trial.dropout_time[ep] = rng.exponential(1.0 / mu, size=n)
        else:
            trial.dropout_time[ep] = np.full(n, np.inf)
    return trial


class SchedulingError(RuntimeError):
    """An analysis trigger exceeds the achievable event count."""


def _observed_event_calendar_times(trial: TrialData, ep: Endpoint) -> np.ndarray:
    """Calendar times of events that are observable (not lost to dropout)."""
    observed = trial.event_time[ep] <= trial.dropout_time[ep]
    return np.sort(trial.enroll_time[observed] + trial.event_time[ep][observed])


def schedule_analyses(trial: TrialData, spec: ScenarioSpec) -> List[float]:
    """Calendar time of each analysis: when its pooled event target is met."""
    times: List[float] = []
    cal = {ep: _observed_event_calendar_times(trial, ep) for ep in Endpoint}
    for k, tr in enumerate(spec.triggers):
        avail = cal[tr.endpoint]
        if tr.events > len(avail):
            raise SchedulingError(
                f"analysis {k + 1} needs {tr.events} {tr.endpoint.value} events; "
                f"only {len(avail)} ever occur"
            )
        t = float(avail[tr.events - 1])
        if times and t < times[-1]:
            t = times[-1]
        times.append(t)
    return times


def _censor(trial: TrialData, ep: Endpoint, time: float, mask: np.ndarray):
    """Observed (duration, event flag) at a cutoff for the patients `mask`
    selects (a boolean mask, or `...` for all), every one of them enrolled
    before the cutoff."""
    follow = time - trial.enroll_time[mask]
    latent = trial.event_time[ep][mask]
    seen = np.minimum(trial.dropout_time[ep][mask], follow)
    return np.minimum(latent, seen), latent <= seen


def _slot_counts(d: np.ndarray, s: np.ndarray, group: np.ndarray, member: np.ndarray):
    """Per-slot counts at each slot's event times in one sample, along its
    rows listed slot by slot in duration order (see the module docstring).

    d and s are the rows' durations and event flags (bool), `group` each
    row's group, 2 * cell + arm ((cell, arm) or (subgroup, arm)), and
    `member` a 0/1 table of slots x groups. Returns (counts, ends, sizes).
    `counts` is 4 x R float64, one column per (slot, event time) with an
    event, slot-major and in time order: rows at risk in both arms and in
    the experimental arm, then events in both arms and in the experimental
    arm. Slot k's columns end at ends[k], and sizes[k] is its (rows,
    experimental rows).
    """
    order = d.argsort()
    d, group = d.take(order), group.take(order)
    n, n_slots = len(d), len(member)
    pos = member.take(group, axis=1).ravel().nonzero()[0]
    # Each entry's 2 * event flag + arm, read off the sorted rows: entry i
    # of the list is sorted row i mod n.
    flags = (2 * s.take(order) + (group & 1)).astype(np.int8).take(pos, mode="wrap")
    arm = flags & 1
    exp_before = np.zeros(len(pos) + 1, dtype=np.intp)  # experimental entries before each
    arm.cumsum(out=exp_before[1:])
    bounds = pos.searchsorted(np.arange(n_slots + 1) * n)  # slot k: bounds[k] to bounds[k + 1]
    ends = bounds[1:]
    at = (flags > 1).nonzero()[0]  # the list's event rows
    d_tot, d_exp = 1, arm.take(at)  # events at each event time
    new_run = d[1:] != d[:-1]
    if len(at) and not new_run.all():
        # An event row is at risk from its slot's first entry at or after
        # the first sorted row of its run of tied durations; the slot's
        # event rows that share that entry are one event time.
        run_start = np.where(np.concatenate(([True], new_run)), np.arange(n), 0)
        np.maximum.accumulate(run_start, out=run_start)
        entry = pos.take(at)
        row = entry % n
        at = pos.searchsorted(entry - row + run_start.take(row))
        first = np.concatenate(([True], at[1:] != at[:-1])).nonzero()[0]
        d_tot = np.diff(first, append=len(at))
        d_exp = np.add.reduceat(d_exp, first)
        at = at.take(first)
    end = ends.take(ends.searchsorted(at, "right"))  # each event time's slot end
    counts = np.empty((4, len(at)))
    np.subtract(end, at, out=counts[0])
    np.subtract(exp_before.take(end), exp_before.take(at), out=counts[1])
    counts[2], counts[3] = d_tot, d_exp
    exp_at = exp_before.take(bounds)
    sizes = zip((ends - bounds[:-1]).tolist(), (exp_at[1:] - exp_at[:-1]).tolist())
    return counts, at.searchsorted(ends).tolist(), list(sizes)


def _logrank_slots(counts: np.ndarray, ends: List[int],
                   sizes: List[Tuple[int, int]]) -> List[Tuple[float, float, int]]:
    """One-sided logrank (z, p, events) for every slot of one sample, from
    `_slot_counts`. A slot with no event, or with one arm only, carries no
    evidence: (0, 1, events)."""
    n_tot, n_exp, d_tot, d_exp = counts
    share = n_exp / n_tot
    terms = np.empty((3, counts.shape[1]))
    np.subtract(d_exp, d_tot * n_exp / n_tot, out=terms[0])
    var = np.multiply(d_tot, share, out=terms[1])
    var *= 1.0 - share
    var *= n_tot - d_tot
    var /= np.maximum(n_tot - 1.0, 1.0)
    terms[2] = d_tot
    out = []
    # Each slot sums over its own event times only, as one contiguous run:
    # the same additions in the same order as a sample holding that slot
    # alone, so a block of slots gives each slot the bits of any other block.
    for lo, hi, (n_all, n_x) in zip([0] + ends, ends, sizes):
        u, v, n_ev = np.add.reduce(terms[:, lo:hi], axis=1).tolist()
        n_ev = int(n_ev)
        if n_ev == 0 or n_x == 0 or n_x == n_all or v <= 0.0:
            out.append((0.0, 1.0, n_ev))
            continue
        z = -u / math.sqrt(v)  # fewer experimental events than expected => z > 0
        out.append((z, 1.0 - norm_cdf(z), n_ev))
    return out


def _breslow_score(counts: np.ndarray):
    """One slot's Breslow score, in the terms `_breslow_hr` and `_hr_below`
    read: (hr, u_lo, u_hi, d, ratio).

    `counts` holds one slot's columns of `_slot_counts`: rows at risk in
    both arms and in the experimental arm, then events in both arms and in
    the experimental arm, at each of the slot's event times. The score
    U(beta) = sum over event times of d_exp - d * share(beta), with share the
    experimental arm's weight of the risk set, falls as beta grows, from
    u_lo = U(-inf) = experimental events - events at times with no control
    row at risk (that is, the experimental events at times with a control
    row at risk) to u_hi = U(+inf) = experimental events - events at times
    with an experimental row at risk. Only event times with both arms at
    risk move U: with d their events and ratio their control rows per
    experimental row, U(beta) = u_lo - sum of d / (1 + ratio * exp(-beta))
    (`_share`). Both limits are exact sums of counts, and hr is the HR they
    fix, or None where the root is finite:

    - U(-inf) = 0 > U(+inf) (no experimental event while a control row is
      at risk): the likelihood rises as beta falls, HR 0;
    - U(-inf) > 0 = U(+inf): likewise, HR inf;
    - U(-inf) = U(+inf) = 0 (no event time has both arms at risk): the
      likelihood is flat, HR 1.
    """
    n_tot, n_exp, d, d_exp = counts
    n_ctl = n_tot - n_exp
    has_ctl = n_ctl > 0
    u_lo = float(np.add.reduce(d_exp[has_ctl]))
    both = has_ctl & (n_exp > 0)
    d, ratio = d[both], n_ctl[both] / n_exp[both]
    u_hi = u_lo - float(np.add.reduce(d))
    hr = None
    if u_lo == 0.0 or u_hi == 0.0:
        hr = 1.0 if u_lo == u_hi else (0.0 if u_lo == 0.0 else math.inf)
    return hr, u_lo, u_hi, d, ratio


def _share(ratio: np.ndarray, beta: float) -> np.ndarray:
    """The experimental arm's weight of each risk set at log HR beta."""
    share = ratio * math.exp(-beta)
    share += 1.0
    return np.reciprocal(share, out=share)


def _hr_below(counts: np.ndarray, theta: float) -> Optional[bool]:
    """Whether one slot's Cox HR, `_breslow_hr(counts)`, is below theta,
    without fitting it; None where the slot has no event.

    U falls as beta grows, so HR < theta exactly when U(log theta) < 0: one
    evaluation of the score instead of a root search. A monotone or flat
    likelihood's HR (0, inf or 1) is compared with theta as it is."""
    if not counts.shape[1]:
        return None
    hr, u_lo, _, d, ratio = _breslow_score(counts)
    if hr is not None:
        return hr < theta
    return float(np.add.reduce(d * _share(ratio, math.log(theta)))) > u_lo


def _breslow_hr(counts: np.ndarray) -> Optional[float]:
    """The Cox HR (Breslow ties) of one slot, None where it has no event.

    The limits of a monotone or flat likelihood are exact
    (`_breslow_score`); otherwise the root is finite, and `find_root`
    (Newton kept inside a sign bracket) finds it to `_COX_TOL` in beta.
    """
    if not counts.shape[1]:
        return None
    hr, u_lo, u_hi, d, ratio = _breslow_score(counts)
    if hr is not None:
        return hr

    def score(beta):
        """U(beta) and its slope, -sum of d * share * (1 - share)."""
        share = _share(ratio, beta)
        expected = d * share
        u = float(np.add.reduce(expected))
        return u_lo - u, float(np.add.reduce(expected * share)) - u

    # share < exp(beta) / ratio and 1 - share < ratio * exp(-beta) give a
    # bracket on which U keeps a margin of at least 1 - 1/e of u_lo and -u_hi,
    # so U(lo) has the sign of u_lo and U(hi) that of u_hi. find_root reads
    # only the signs at the bracket ends; it is handed those, not U.
    lo = math.log(u_lo / float(np.add.reduce(d / ratio))) - 1.0
    hi = math.log(float(np.add.reduce(d * ratio)) / -u_hi) + 1.0
    return math.exp(find_root(score, lo, hi, u_lo, u_hi, 0.0, tol=_COX_TOL))


class AnalysisSnapshot:
    """Per-analysis summary: event count, z and one-sided p per slot, in
    `slot` order. Only `snapshot_at` builds one.

    An analysis snapshot holds the trial's enrolled rows at its cutoff and
    computes its slots one block at a time: `block(e, pooled)` fills
    endpoint e's pooled block (F and S) or its stage-wise block (stage 1 and
    stage 2, F and S), and `endpoint_scores(e)` the endpoint's six normal
    scores. Both take the endpoint's position in `Endpoint` order and return
    the whole table, (z, p, events) per slot or (q, clamped) per score, with
    those entries filled. The read-only tables (`events`, `z`, `p`,
    `zero_event_slots`, `scores`) fill every block. Its hazard ratios are
    None; the futility gate's are on `FutilitySnapshot`.
    """

    __slots__ = ("calendar_time", "_trial", "_rows", "_cutoff", "_stats", "_scores")
    hr_full = hr_sub = None

    def __init__(self, trial: TrialData, time: float, spec: ScenarioSpec):
        self.calendar_time = time
        self._trial = trial
        # After accrual every row is enrolled, and `...` reads whole columns.
        self._rows = ... if time > trial.last_enroll else trial.enroll_time < time
        self._cutoff = spec.stage1_cutoff
        self._stats = [None] * _N_SLOTS
        self._scores = [None] * _N_SLOTS

    def block(self, e: int, pooled: bool) -> List[Tuple[float, float, int]]:
        """The (z, p, events) table with one block of endpoint e filled.

        A fill censors the endpoint's enrolled rows and counts them slot by
        slot along their duration order in one kernel call. The pooled block
        lists the rows by (subgroup, arm) and fills its two slots; the
        stage-wise block lists them by (cell, arm) and fills all six,
        rewriting a pooled pair read before with the same bits."""
        stats = self._stats
        stagewise, pooled_pair = _SLOTS[e]
        if stats[(pooled_pair if pooled else stagewise)[0]] is None:
            trial, rows = self._trial, self._rows
            if pooled:
                group, member, slots = trial.group, _POOLED_PAIR, pooled_pair
            else:
                group, member = trial.cell_group(self._cutoff), _SIX_SLOTS
                slots = stagewise + pooled_pair
            dur, st = _censor(trial, _ENDPOINTS[e], self.calendar_time, rows)
            for j, stat in zip(slots, _logrank_slots(*_slot_counts(dur, st, group[rows], member))):
                stats[j] = stat
        return stats

    def endpoint_scores(self, e: int) -> List[Tuple[float, bool]]:
        """The score table with endpoint e's six entries filled: its four
        stage-wise slots and its two Hochberg intersections."""
        scores = self._scores
        if scores[e] is None:
            stats = self.block(e, False)
            for full, sub, joint in _SCORE_SLOTS[e]:
                p_full, p_sub = stats[full][1], stats[sub][1]
                scores[full], scores[sub] = normal_score(p_full), normal_score(p_sub)
                scores[joint] = normal_score(hochberg_intersection(p_full, p_sub))
        return scores

    def _column(self, k: int) -> tuple:
        """Entry k of every slot's (z, p, events), with every block filled:
        each endpoint's stage-wise block, which fills its pooled pair too."""
        for e in range(len(_ENDPOINTS)):
            self.block(e, False)
        return tuple(stat[k] for stat in self._stats)

    @property
    def z(self) -> Tuple[float, ...]:
        return self._column(0)

    @property
    def p(self) -> Tuple[float, ...]:
        return self._column(1)

    @property
    def events(self) -> Tuple[int, ...]:
        return self._column(2)

    @property
    def zero_event_slots(self) -> Tuple[int, ...]:
        """Indices of the slots with no event."""
        return tuple(i for i, n in enumerate(self.events) if n == 0)

    @property
    def scores(self) -> Tuple[Tuple[float, bool], ...]:
        """12 (q, clamped) pairs, `combine.normal_score` of each stage-wise
        p-value in `slot` order (entries 0-7), then of each stage's Hochberg
        intersection of F and S in `joint_slot` order (8-11)."""
        for e in range(len(_ENDPOINTS)):
            self.endpoint_scores(e)
        return tuple(self._scores)


class FutilitySnapshot:
    """The futility gate's snapshot (`snapshot_at(..., with_hr=True)`): the
    stage-1 PFS rows enrolled by the cutoff, counted once, F and S over
    (subgroup, arm) groups. `below(rule)` answers the gate by score sign,
    once per rule; `hr_full` and `hr_sub` are fitted on first read, which a
    trace, a test or a script makes and the Monte Carlo does not. Both are
    None where a population has no stage-1 PFS event. Its slot tables are
    empty."""

    z = p = events = zero_event_slots = ()

    def __init__(self, trial: TrialData, time: float, spec: ScenarioSpec):
        stage1 = (trial.enroll_time < spec.stage1_cutoff) & (trial.enroll_time < time)
        dur, st = _censor(trial, Endpoint.PFS, time, stage1)
        counts, (f_end, s_end), _ = _slot_counts(dur, st, trial.group[stage1], _POOLED_PAIR)
        self._counts = counts[:, :f_end], counts[:, f_end:s_end]
        self._below: Dict[Tuple[float, float], Optional[Tuple[bool, bool]]] = {}

    @cached_property
    def hr_full(self) -> Optional[float]:
        return _breslow_hr(self._counts[0])

    @cached_property
    def hr_sub(self) -> Optional[float]:
        return _breslow_hr(self._counts[1])

    def below(self, rule) -> Optional[Tuple[bool, bool]]:
        """(HR(F) < rule.theta_full, HR(S) < rule.theta_sub), without a
        fit; None where a population has no stage-1 PFS event."""
        thetas = rule.theta_full, rule.theta_sub
        if thetas not in self._below:
            full, sub = map(_hr_below, self._counts, thetas)
            self._below[thetas] = None if full is None or sub is None else (full, sub)
        return self._below[thetas]


# Cells are stage x subgroup: 0 stage-1 complement, 1 stage-1 subgroup,
# 2 stage-2 complement, 3 stage-2 subgroup. Each (cohort, population) row
# is a union of cells; rows run cohort-major, F before S.
_COHORTS = ("stage1", "stage2", "pooled")
_STAGES = _COHORTS[:2]
_STAGE_CELLS = [(1, 1, 0, 0), (0, 1, 0, 0),  # stage1
                (0, 0, 1, 1), (0, 0, 0, 1)]  # stage2
_POOLED_CELLS = [(1, 1, 1, 1), (0, 1, 0, 1)]
_ENDPOINTS = tuple(Endpoint)
_N_SLOTS = 2 * len(_COHORTS) * len(_ENDPOINTS)


def slot(cohort: str, population: Population, endpoint: Endpoint) -> int:
    """Index of a statistic in a snapshot's slot tables. Cohort ("stage1",
    "stage2", "pooled") is outermost, then population, then endpoint, each
    in declaration order: stage 1 holds slots 0-3, stage 2 4-7, pooled 8-11."""
    row = 2 * _COHORTS.index(cohort) + (population is Population.SUB)
    return len(_ENDPOINTS) * row + _ENDPOINTS.index(endpoint)


def joint_slot(cohort: str, endpoint: Endpoint) -> int:
    """Index in `AnalysisSnapshot.scores` of a stage's Hochberg intersection
    of F and S: stage 1 at 8-9, stage 2 at 10-11, endpoint innermost."""
    row = 2 * len(_STAGES) + _STAGES.index(cohort)
    return len(_ENDPOINTS) * row + _ENDPOINTS.index(endpoint)


# Per endpoint, the slots of its stage-wise block and of its pooled pair.
_SLOTS = tuple((tuple(slot(c, pop, ep) for c in _STAGES for pop in Population),
                tuple(slot("pooled", pop, ep) for pop in Population)) for ep in _ENDPOINTS)
# `_slot_counts`' member tables: group 2c + arm is in a slot when cell c is.
# A stage-wise fill's six slots over the (cell, arm) groups, its block's
# four then the pooled pair; and F (both subgroups) and S (the subgroup)
# over the (subgroup, arm) groups of `TrialData.group`, the pooled pair's
# and the futility gate's over its stage-1 rows.
_SIX_SLOTS = np.repeat(np.array(_STAGE_CELLS + _POOLED_CELLS, dtype=bool), 2, axis=1)
_POOLED_PAIR = np.repeat(np.array([(1, 1), (0, 1)], dtype=bool), 2, axis=1)
# Per endpoint and stage, the (F slot, S slot, Hochberg intersection) entries
# of the score table that `endpoint_scores` fills.
_SCORE_SLOTS = tuple(tuple((*(slot(c, pop, ep) for pop in Population), joint_slot(c, ep))
                           for c in _STAGES) for ep in _ENDPOINTS)


def snapshot_at(trial: TrialData, time: float, spec: ScenarioSpec,
                with_hr: bool = False) -> Union[AnalysisSnapshot, FutilitySnapshot]:
    """Summaries of all 12 (cohort, population, endpoint) slots at a cutoff,
    computed on first read.

    An endpoint's enrolled patients are censored, sorted and counted when a
    block of its slots is first read: by (subgroup, arm) for a pooled pair
    (F and S), by (cell, arm) for a stage-wise block (stage 1 and stage 2,
    F and S), which also fills the pooled pair.

    With `with_hr` this is the futility gate's snapshot instead
    (`FutilitySnapshot`): one count of the stage-1 PFS rows, which answers
    the gate by score sign and fits `hr_full` and `hr_sub` when they are
    read. Its slot tables are empty.
    """
    if time < 0:
        raise ValueError("snapshot time must be nonnegative")
    return FutilitySnapshot(trial, time, spec) if with_hr else AnalysisSnapshot(trial, time, spec)
