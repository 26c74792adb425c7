"""Per-trial decision engines for the three designs.

GSD tests all four hypotheses on pooled data with group-sequential
boundaries. AD and gGSD apply the futility gate at the end of stage 1, whose
`futility.Selection` names the populations that continue (the continuation
scenario), then combine stage-wise p-values of those populations; gGSD
additionally tests the populations hierarchically, each carrying the full
alpha internally.

Alpha passing follows one fixed graph: PFS<->OS within each population,
each edge with weight 1, and no alpha crosses populations. Under the
graphical update rule that graph has a closed form, computed here
(`_Plan.levels`): a hypothesis holds its own alpha, plus its partner's
once the partner is rejected.

Simulated trials (`decide_design`, `run_design`) and observed-data replay
(`analyze_observed`) run through one decision loop, `_decide`; they differ
only in where each analysis's statistics come from. Both walk the reads
each plan compiles from one wiring table, `_CONTINUING`: the populations
each selection of the futility gate keeps. A continuing population's
hypothesis combines its own stage-wise cohorts, and an endpoint's FS
intersection, read after them, joins by Hochberg the p-values of the
populations that stage draws on.

Within one analysis, testing iterates (test, reject, reallocate, recompute
boundaries, retest) to a fixed point, and boundary recomputation after an
alpha increase re-evaluates already-passed looks against the new lower
critical values. The procedure's state is the bitmask of rejected targets:
at most 2^6 masks per plan, a finite graph walk (Bretz et al. 2009, Stat.
Med. 28:586; Maurer & Bretz 2013, Stat. Biopharm. Res. 5:311).

A call does only the work that is new to its arm and data:

- Plan. What an arm fixes before seeing data is compiled once per
  continuing selection into a `_Plan` kept on the `DesignSpec`: the
  hypotheses in scope, their alphas, the starting state of gGSD's hierarchy
  gate, the members of each FS intersection, the snapshot entries each
  analysis reads (`simdata.slot`, `simdata.joint_slot`; a replication reads
  its statistics by index), and each hypothesis's boundary row at its two
  alpha levels, solved on first use by `cached_boundaries`.
- Shared normal scores. Every statistic an AD or gGSD arm combines is one
  of the 12 normal scores of the snapshot (`AnalysisSnapshot.scores`),
  shared by every arm and scenario; the plan picks two entries per target,
  and each arm forms its own inverse-normal z = w1*q1 + w2*q2.
- One futility gate. Each gated arm asks the gate's two questions, is
  HR(F) below its threshold and is HR(S) below its own, and maps the answers
  to a selection by `futility.SELECTIONS`. The futility snapshot answers by
  the sign of each population's Cox score at log theta, once per rule and
  replication and shared by every arm, and fits no hazard ratio;
  `analyze_observed` compares the given HRs (`below_thresholds`). The
  fitted HRs appear only in a trace, which fits them when it is built.
- Demand-driven snapshots. A load entry reads one block of its endpoint
  from the snapshot: GSD the pooled z (`block(e, True)`), a gated arm the
  endpoint's six scores (`endpoint_scores(e)`), event-driven weights the
  stage-wise event counts (`block(e, False)`). The snapshot computes a
  block when it is first read, so a gated arm stopped at futility costs no
  logrank work and no score, and no bundled arm makes the final analysis
  compute PFS.
- Per-mask tests. A plan compiles, the first time a run reaches a
  rejection mask, the tests the fixed point runs there in its visit order:
  the FS intersections, then the hypotheses in scope, each a target, its
  boundary row and the FS bit its rejection needs (`_Plan.tests`). An FS
  row is the element-wise minimum of its testable members' rows, so a
  replication re-derives no testability, row or minimum. Rows are still
  solved on first use, so building the designs solves none.
- Decisions, traces on request. `_decide` returns a `Decision`: the mask at
  the end of each analysis, the order of the rejections and a per-target
  table of (look, z). The Monte Carlo reads only its confirmed mask and
  the number of analyses run (`decide_design`); `run_design` and
  `analyze_observed` build the full `DecisionTrace` from it in one pass,
  replaying the rejections through the masks they passed for the mask
  each target was rejected on. Every row, live or rejected, reads its
  boundary row and alpha through one lookup at a mask (`_bound`); which
  look a row shows is `TestRecord`'s rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .boundaries import cached_boundaries, fraction_problem
from .combine import StageWeights, event_weights, normal_score
from .futility import SELECTIONS, FutilityRule, Selection, SelectionDecision, below_thresholds
from .multiplicity import (HYPOTHESES, HYPOTHESIS_SLUGS, Endpoint, HypothesisId, Population,
                           hochberg_intersection, hypothesis_mask)
from .numerics import norm_cdf
from .rules import ALPHA, NONNEGATIVE, POSITIVE, UNIT, refuse, sum_problem
from .simdata import AnalysisSnapshot, FutilitySnapshot, joint_slot, slot

__all__ = [
    "DesignKind",
    "DesignSpec",
    "ObservedData",
    "TestRecord",
    "AnalysisRecord",
    "DecisionTrace",
    "Decision",
    "decide_design",
    "run_design",
    "analyze_observed",
    "render_narrative",
]

ANALYSIS_NAMES = ("IA1", "IA2", "FA")


class _Target(NamedTuple):
    label: str
    endpoint: Endpoint


_OTHER_ENDPOINT = {Endpoint.PFS: Endpoint.OS, Endpoint.OS: Endpoint.PFS}
# The six test targets as indices 0..5: the four hypotheses in HYPOTHESES
# order, then the per-endpoint FS intersections in Endpoint order.
_TARGETS = tuple([_Target(str(h), h.endpoint) for h in HYPOTHESES]
                 + [_Target(f"{ep.value.upper()}(FS)", ep) for ep in Endpoint])
_FS_INDEX = {ep: len(HYPOTHESES) + i for i, ep in enumerate(Endpoint)}
_INDEX = {h: i for i, h in enumerate(HYPOTHESES)}
_FS = tuple(_FS_INDEX.values())
# Per hypothesis: the same population's other endpoint, and its endpoint's FS
# target.
_PARTNER = tuple(_INDEX[HypothesisId(h.population, _OTHER_ENDPOINT[h.endpoint])]
                 for h in HYPOTHESES)
_FS_OF = tuple(_FS_INDEX[h.endpoint] for h in HYPOTHESES)
_SUB_MASK = hypothesis_mask(HypothesisId(Population.SUB, ep) for ep in Endpoint)
_HYPOTHESIS_MASK = hypothesis_mask(HYPOTHESES)
_SLUG = {h: slug for slug, h in HYPOTHESIS_SLUGS.items()}
# The wiring: the populations that continue into stage 2 after each selection
# of the futility gate (None: GSD, which has no gate, keeps both).
_CONTINUING: Dict[Optional[Selection], Tuple[Population, ...]] = {
    None: tuple(Population), Selection.CONTINUE_BOTH: tuple(Population),
    Selection.CONTINUE_FULL_ONLY: (Population.FULL,),
    Selection.CONTINUE_SUB_ONLY: (Population.SUB,)}
# The continuation scenario `to_dict` names after each continuing selection.
_SCENARIO_NAMES = {Selection.CONTINUE_BOTH: "both", Selection.CONTINUE_FULL_ONLY: "f_only",
                   Selection.CONTINUE_SUB_ONLY: "s_only"}


class DesignKind(Enum):
    GSD = "gsd"
    AD = "ad"
    GGSD = "ggsd"


class DesignConfigError(ValueError):
    """Inconsistent design specification."""


class MissingSlotError(ValueError):
    """A required snapshot or observed-data slot is absent."""


def split_problems(alpha: Optional[float], alphas: Mapping[HypothesisId, Optional[float]],
                   by_population: bool, skip_none: bool = False) -> List[Tuple[str, str]]:
    """(path suffix, reason) for each way `alphas` fails to split `alpha`: a
    share below 0 or None (".<slug>"), or shares not summing to `alpha`, in
    each population if `by_population` (""). A None stops the sums; with
    `skip_none` (a value already refused) it is not reported."""
    out = [(f".{_SLUG[h]}", r) for h, a in alphas.items() if (r := NONNEGATIVE(a, skip_none))]
    if out or alpha is None or None in alphas.values():
        return out
    for pop in (Population if by_population else (None,)):
        reason = sum_problem([a for h, a in alphas.items() if pop in (None, h.population)], alpha)
        if reason:
            out.append(("", f"{pop.value}-population alphas {reason}" if pop else f"alphas {reason}"))
    return out


def schedule_problem(looks: Sequence[int]) -> Optional[str]:
    """None if one endpoint's 0-based analysis indices are nonempty, among
    ANALYSIS_NAMES and strictly increasing, else the reason (numbered from 1)."""
    if not looks:
        return "expected at least one analysis"
    if not all(0 <= i < len(ANALYSIS_NAMES) for i in looks):
        return (f"expected analyses numbered 1..{len(ANALYSIS_NAMES)} {ANALYSIS_NAMES}, "
                f"got {[i + 1 for i in looks]}")
    if any(b <= a for a, b in zip(looks, looks[1:])):
        return f"analysis indices must be strictly increasing, got {[i + 1 for i in looks]}"
    return None


@dataclass(frozen=True)
class DesignSpec:
    """Everything pre-specified about one design arm."""

    kind: DesignKind
    alpha: float
    initial_alphas: Dict[HypothesisId, float]
    fractions: Dict[HypothesisId, Tuple[float, ...]]
    endpoint_analyses: Dict[Endpoint, Tuple[int, ...]]
    # AD/gGSD: pre-specified weights per endpoint and look, or None for
    # event-driven weights (`combine.event_weights`). GSD reads none.
    weights: Optional[Dict[Endpoint, Tuple[StageWeights, ...]]] = field(default_factory=dict)
    futility: Optional[FutilityRule] = None
    label: str = ""

    def __post_init__(self):
        gated = self.kind is not DesignKind.GSD
        weights = self.weights if gated else None  # None: event-driven, or GSD's none
        problems = [("alpha", ALPHA(self.alpha))]
        problems += [(f"initial_alphas{suffix}", reason) for suffix, reason in split_problems(
            self.alpha, {h: self.initial_alphas.get(h) for h in HYPOTHESES},
            self.kind is DesignKind.GGSD)]
        schedules = {}  # each endpoint's schedule; None where missing or refused
        for ep in Endpoint:
            looks = self.endpoint_analyses.get(ep)
            reason = "analysis schedule missing" if looks is None else schedule_problem(looks)
            problems.append((f"endpoint_analyses.{ep.value}", reason))
            schedules[ep] = looks = None if reason else looks
            if weights is not None and (weights.get(ep) is None
                                        or looks is not None and len(weights[ep]) != len(looks)):
                problems.append((f"weights.{ep.value}", "weight table missing or misaligned"))
        for h in HYPOTHESES:
            path = f"fractions.{h.population.value}.{h.endpoint.value}"
            fr, looks = self.fractions.get(h), schedules[h.endpoint]
            if fr is None:
                problems.append((path, "fractions missing"))
                continue
            if looks is not None and len(fr) != len(looks):
                problems.append((path, f"{len(fr)} fractions but {len(looks)} planned analyses"))
            problems.append((path, fraction_problem(tuple(fr))))
        if gated and self.futility is None:
            problems.append(("futility", f"{self.kind.value} requires a futility rule"))
        refuse(problems, DesignConfigError)

    @cached_property
    def n_analyses(self) -> int:
        return 1 + max(max(v) for v in self.endpoint_analyses.values())

    @cached_property
    def _plans(self) -> Dict[Optional[Selection], "_Plan"]:
        """The compiled plan of every selection this arm can continue after."""
        gsd = self.kind is DesignKind.GSD
        return {s: _Plan(self, pops) for s, pops in _CONTINUING.items() if (s is None) is gsd}


@dataclass(frozen=True)
class TestRecord:
    """One target's row in one analysis: its boundary row and alpha at the
    mask it was rejected on (`confirmed`), else at the analysis's end, and
    the fixed point's own test of it there, the first look whose z reaches
    the row (`crossed`), else the latest look. A rejected target's row thus
    shows the statistic and boundary it was rejected on, which may be from
    an earlier look than the analysis that rejected it. No boundary (NaN)
    where a hypothesis carries no alpha or an FS target has no testable
    member; `alpha` is NaN on FS rows."""

    target_label: str
    z: float
    boundary_z: float
    boundary_p: float
    alpha: float
    crossed: bool
    confirmed: bool


@dataclass
class AnalysisRecord:
    """One analysis of a trace: what it rejected, in rejection order, a row
    for every target with a statistic so far, in the plan's read order
    (each endpoint's hypotheses before its FS intersection), and each
    in-scope hypothesis's alpha at its end."""

    index: int
    calendar_time: Optional[float]
    newly_rejected: List[str]
    tests: List[TestRecord]
    alpha_snapshot: Dict[str, float]


@dataclass
class DecisionTrace:
    design: str
    futility: Optional[SelectionDecision]
    analyses: List[AnalysisRecord] = field(default_factory=list)
    rejected_at: Dict[str, int] = field(default_factory=dict)  # label -> analysis idx
    termination_index: Optional[int] = None
    termination_reason: str = ""  # futility | all-rejected | reached-FA
    warnings: List[str] = field(default_factory=list)

    def confirmed(self) -> Dict[str, int]:
        """Elementary rejections only (intersections carry an FS tag)."""
        return {k: v for k, v in self.rejected_at.items() if "(FS)" not in k}

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "scenario": None if self.futility is None
            else _SCENARIO_NAMES.get(self.futility.selection),
            "futility": None if self.futility is None else {
                "decision": self.futility.selection.value,
                "hr_full": self.futility.hr_full,
                "hr_sub": self.futility.hr_sub,
            },
            "termination": {
                "analysis": None if self.termination_index is None
                else ANALYSIS_NAMES[self.termination_index],
                "reason": self.termination_reason,
            },
            "rejections": {k: ANALYSIS_NAMES[v] for k, v in self.rejected_at.items()},
            "analyses": [
                {
                    "name": ANALYSIS_NAMES[a.index],
                    "calendar_time": a.calendar_time,
                    "alphas": a.alpha_snapshot,
                    "tests": [
                        {
                            "target": t.target_label,
                            "z": round(t.z, 6),
                            "boundary_z": _rounded(t.boundary_z, 6),
                            "nominal_p": _rounded(t.boundary_p, 8),
                            "alpha": _rounded(t.alpha, 8),
                            "crossed": t.crossed,
                            "confirmed": t.confirmed,
                        }
                        for t in a.tests
                    ],
                    "newly_rejected": a.newly_rejected,
                }
                for a in self.analyses
            ],
            "warnings": self.warnings,
        }


def _rounded(x: float, digits: int) -> Optional[float]:
    """`x` rounded for `to_dict`, or None where the trace holds NaN: no live
    boundary, or an FS target's alpha."""
    return None if math.isnan(x) else round(x, digits)


def _base_alpha(design: DesignSpec, h: HypothesisId, pops: Tuple[Population, ...]) -> float:
    """Alpha before any rejection. GSD and AD keep the original allocations
    (alpha of a dropped population is not reallocated: only a rejection
    moves alpha). gGSD re-levels each population at the full alpha; with
    one population continuing, all of it starts on PFS and passes to OS. A
    hypothesis out of scope holds none.
    """
    if h.population not in pops:
        return 0.0
    if design.kind is DesignKind.GGSD and len(pops) == 1:
        return design.alpha if h.endpoint is Endpoint.PFS else 0.0
    return design.initial_alphas[h]


# A test of the fixed point: (target, boundary row, FS bit a rejection needs).
_Test = Tuple[int, Tuple[float, ...], int]


class _Plan:
    """What one arm fixes before any data, with populations `pops` continuing.

    `levels[i]` holds hypothesis i's alpha indexed by "partner rejected":
    the graphical update rule on the PFS<->OS edges in closed form.
    `loads[k]` lists what analysis k enters, per endpoint with a look there
    in Endpoint order: (look, weights, reads, (e, n1, n2)), where e is the
    endpoint's position, which names its blocks of the snapshot. GSD reads
    (hypothesis, pooled slot) pairs of `z`; AD and gGSD read (target,
    stage-1 index, stage-2 index) triples of `scores`, an endpoint's
    hypotheses before its FS intersection, and event-driven weights (None)
    read the full population's stage slots n1 and n2 of `events`. `first`
    lists the targets in the order the reads reach them, a trace's row
    order. `tests(mask)` is the fixed point's tests at one rejection
    bitmask, compiled when a run first reaches it.
    """

    __slots__ = ("in_scope", "scope_mask", "levels", "gate0", "gated", "members",
                 "fractions", "analyses_of", "loads", "first", "_tests")

    def __init__(self, design: DesignSpec, pops: Tuple[Population, ...]):
        self.in_scope = tuple(i for i, h in enumerate(HYPOTHESES) if h.population in pops)
        self.scope_mask = sum(1 << i for i in self.in_scope)
        base = tuple(_base_alpha(design, h, pops) for h in HYPOTHESES)
        self.levels = tuple((base[i], base[i] + base[p]) for i, p in enumerate(_PARTNER))
        self.gate0 = not (design.kind is DesignKind.GGSD and len(pops) == 2)
        self.gated = design.kind is not DesignKind.GSD
        self.members = {t: tuple(i for i in self.in_scope if _FS_OF[i] == t) for t in _FS}
        self.fractions = tuple(design.fractions[h] for h in HYPOTHESES)
        self.analyses_of = tuple(design.endpoint_analyses[t.endpoint] for t in _TARGETS)
        self.loads = [[] for _ in range(design.n_analyses)]
        for e, ep in enumerate(Endpoint):
            stage1, stage2, pooled = ([slot(c, pop, ep) for pop in Population]
                                      for c in ("stage1", "stage2", "pooled"))
            own = [(_INDEX[HypothesisId(pop, ep)], j) for j, pop in enumerate(Population)
                   if pop in pops]
            if not self.gated:
                reads = tuple((i, pooled[j]) for i, j in own)
            else:
                # A hypothesis combines its own cohorts; the FS intersection joins
                # both populations at stage 1 and the continuing ones at stage 2.
                fs2 = joint_slot("stage2", ep) if len(own) > 1 else stage2[own[0][1]]
                reads = (*((i, stage1[j], stage2[j]) for i, j in own),
                         (_FS_INDEX[ep], joint_slot("stage1", ep), fs2))
            for look, k in enumerate(design.endpoint_analyses[ep]):
                w = None if not self.gated or design.weights is None else design.weights[ep][look]
                self.loads[k].append((look, w, reads, (e, stage1[0], stage2[0])))
        self.first = tuple(dict.fromkeys(r[0] for load in self.loads for _, _, reads, _ in load
                                         for r in reads))
        self._tests: Dict[int, Tuple[Optional[_Test], ...]] = {}

    def row(self, i: int, level: int) -> Tuple[float, ...]:
        """Hypothesis i's z boundaries at alpha `levels[i][level]`."""
        return cached_boundaries(round(self.levels[i][level], 12), self.fractions[i]).z_bounds

    def tests(self, mask: int) -> Tuple[Optional[_Test], ...]:
        """The fixed point's tests at rejection bitmask `mask`, one per step
        of its visit order: the FS intersections (AD, gGSD), then the
        hypotheses in scope; None where that target cannot be rejected at
        `mask`. An FS row is the element-wise minimum of the rows of its
        members that are testable at `mask`."""
        tests = self._tests.get(mask)
        if tests is None:
            tests = []
            if self.gated:
                for t in _FS:
                    rows = () if mask >> t & 1 else [
                        _row(self, mask, i) for i in self.members[t] if _testable(self, mask, i)]
                    tests.append((t, tuple(map(min, zip(*rows))), 0) if rows else None)
            for i in self.in_scope:
                tests.append((i, _row(self, mask, i), 1 << _FS_OF[i] if self.gated else 0)
                             if _testable(self, mask, i) else None)
            tests = self._tests[mask] = tuple(tests)
        return tests


# -- the fixed point, on a plan and a rejection bitmask ----------------------------


def _alpha(plan: _Plan, mask: int, i: int) -> float:
    if mask >> i & 1:
        return 0.0
    return plan.levels[i][mask >> _PARTNER[i] & 1]


def _row(plan: _Plan, mask: int, i: int) -> Tuple[float, ...]:
    return plan.row(i, mask >> _PARTNER[i] & 1)


def _testable(plan: _Plan, mask: int, i: int) -> bool:
    # Out-of-scope hypotheses carry no alpha, so they never pass. gGSD's
    # hierarchy gate admits S, and F once an S hypothesis is rejected.
    if mask >> i & 1 or plan.levels[i][mask >> _PARTNER[i] & 1] <= 0.0:
        return False
    return plan.gate0 or bool((mask | 1 << i) & _SUB_MASK)


def _fixed_point(plan: _Plan, z: Tuple[List[Tuple[int, float]], ...], mask: int,
                 order: List[int]) -> int:
    """One analysis: test, reject, reallocate, retest, until a pass over
    the visit order rejects nothing. A target crosses when its statistic at
    any recorded look reaches that look's boundary; a test after a rejection
    reads the new mask's boundaries. Appends each rejected target to `order`
    and returns the analysis's final mask."""
    tests = plan.tests(mask)
    changed = True
    while changed:
        changed = False
        for p in range(len(tests)):
            test = tests[p]
            if test is None:
                continue
            t, row, need = test
            for look, value in z[t]:
                if value >= row[look]:
                    break
            else:
                continue
            if mask & need != need:
                continue  # blocked by the closed-testing gate
            mask |= 1 << t
            order.append(t)
            tests = plan.tests(mask)
            changed = True
    return mask


class Decision(NamedTuple):
    """One arm's decisions on one trial, as `_decide` computes them.

    `selection` is the futility gate's (None for GSD), and `gate` what
    answered it: the futility snapshot or the `ObservedData`. `analyses`
    holds the rejection bitmask over `_TARGETS` at the end of each analysis
    run (none after a futility stop, when `plan` is None),
    `order` the rejected targets in the order the fixed point rejected
    them, `times` each analysis's calendar time, `z[t]` target t's (look, z)
    pairs in look order, and `clamps` the (analysis, target) pairs whose
    scores were clamped, in the order they were read. `run_design` and
    `analyze_observed` build a `DecisionTrace` from it.
    """

    design: DesignSpec
    selection: Optional[Selection]
    gate: object
    plan: Optional[_Plan]
    analyses: List[int] = ()
    order: List[int] = ()
    times: List[Optional[float]] = ()
    z: Tuple[List[Tuple[int, float]], ...] = ()
    clamps: List[Tuple[int, int]] = ()

    @property
    def confirmed(self) -> int:
        """The confirmed rejections: a bitmask, bit i for HYPOTHESES[i]."""
        return self.analyses[-1] & _HYPOTHESIS_MASK if self.analyses else 0

    @property
    def futility(self) -> Optional[SelectionDecision]:
        """The gate's selection with the two hazard ratios it compared (None
        for GSD). A simulated trial's are fitted on the first read."""
        if self.selection is None:
            return None
        return SelectionDecision(self.selection, self.gate.hr_full, self.gate.hr_sub)

    @property
    def warnings(self) -> List[str]:
        return [f"analysis {k + 1}: degenerate p-value clamped for {_TARGETS[i].label}"
                for k, i in self.clamps]


def _decide(design: DesignSpec, gate, load: Callable[[Decision, int, object], Optional[float]],
            data) -> Decision:
    """The one decision loop behind `run_design`, `decide_design` and
    `analyze_observed`.

    Applies the end-of-stage-1 futility gate (AD, gGSD): `gate` (a futility
    snapshot or `ObservedData`) answers whether each stage-1 PFS hazard
    ratio is below its threshold, and `SELECTIONS` maps the answers to the
    selection. Then it walks the planned analyses: `load(decision, k,
    data)` enters analysis k's statistics into the decision's z table and
    returns its calendar time, and the fixed
    point runs until every hypothesis in scope is rejected or the final
    analysis is reached.
    """
    selection = None
    if design.kind is not DesignKind.GSD:
        # None, or an analysis snapshot in its place, answers nothing.
        below = getattr(gate, "below", lambda rule: None)(design.futility)
        if below is None:
            raise MissingSlotError("stage-1 futility hazard ratios (HR(F), HR(S)) are required")
        selection = SELECTIONS[below]
        if selection is Selection.STOP_FUTILITY:
            return Decision(design, selection, gate, None)
    plan = design._plans[selection]
    masks, order, times, z = [], [], [], ([], [], [], [], [], [])
    dec = Decision(design, selection, gate, plan, masks, order, times, z, [])
    scope = plan.scope_mask
    mask = 0
    for k in range(design.n_analyses):
        times.append(load(dec, k, data))
        mask = _fixed_point(plan, z, mask, order)
        masks.append(mask)
        if mask & scope == scope:
            break
    return dec


def _trace(dec: Decision) -> DecisionTrace:
    """The full trace of a decision: per analysis, the hypotheses it
    rejected in rejection order, every target's test row and the alphas."""
    trace = DecisionTrace(design=dec.design.kind.value, futility=dec.futility,
                          warnings=dec.warnings)
    plan = dec.plan
    if plan is None:
        trace.termination_reason = "futility"
        return trace
    # The mask each target was rejected on: replayed through the masks the
    # fixed point passed.
    rejected_on: Dict[int, int] = {}
    mask = 0
    order = iter(dec.order)
    for k, end in enumerate(dec.analyses):
        newly = []
        while mask != end:
            t = next(order)
            rejected_on[t] = mask
            if t < len(HYPOTHESES):
                newly.append(_TARGETS[t].label)
            trace.rejected_at[_TARGETS[t].label] = k
            mask |= 1 << t
        tests = []
        for t in plan.first:
            hist = _history(dec, t, k)
            if not hist:
                continue
            confirmed = bool(end >> t & 1)
            row, alpha = _bound(plan, rejected_on[t] if confirmed else end, t)
            # the fixed point's own test: the first look that reaches the row
            crossing = [] if row is None else [(j, v) for j, v in hist if v >= row[j]]
            look, z = crossing[0] if crossing else hist[-1]
            c = math.nan if row is None else row[look]
            tests.append(TestRecord(
                target_label=_TARGETS[t].label, z=z, boundary_z=c,
                boundary_p=math.nan if row is None else 1.0 - norm_cdf(c), alpha=alpha,
                crossed=bool(crossing), confirmed=confirmed))
        trace.analyses.append(AnalysisRecord(
            index=k, calendar_time=dec.times[k], newly_rejected=newly, tests=tests,
            alpha_snapshot={_TARGETS[i].label: _alpha(plan, end, i) for i in plan.in_scope}))
    scope = plan.scope_mask
    trace.termination_index = k
    trace.termination_reason = "all-rejected" if end & scope == scope else "reached-FA"
    return trace


def _history(dec: Decision, t: int, k: int) -> List[Tuple[int, float]]:
    """Target t's (look, z) pairs recorded up to analysis k."""
    when = dec.plan.analyses_of[t]
    return [(look, z) for look, z in dec.z[t] if when[look] <= k]


def _bound(plan: _Plan, mask: int, t: int) -> Tuple[Optional[Tuple[float, ...]], float]:
    """Target t's boundary row and alpha at rejection bitmask `mask`. The
    row is None where a hypothesis carries no alpha (e.g. gGSD's OS ahead
    of the PFS handover) or an FS target has no testable member; an FS
    target's alpha is NaN."""
    if t >= len(HYPOTHESES):
        test = plan.tests(mask)[t - len(HYPOTHESES)]
        return None if test is None else test[1], math.nan
    alpha = _alpha(plan, mask, t)
    return _row(plan, mask, t) if alpha > 0.0 else None, alpha


def _load_snapshot(dec: Decision, k: int, snapshots: Sequence[AnalysisSnapshot]) -> float:
    """GSD: pooled logrank z. AD/gGSD: inverse-normal combination of the
    snapshot's normal scores, wired per continuation scenario. Each load
    entry reads one block of its endpoint, so the snapshot computes only
    the blocks some arm reads."""
    snap = snapshots[k]
    plan, z = dec.plan, dec.z
    for look, w, reads, (e, n1, n2) in plan.loads[k]:
        if not plan.gated:
            stats = snap.block(e, True)
            for i, j in reads:
                z[i].append((look, stats[j][0]))
            continue
        if w is None:
            stats = snap.block(e, False)
            w = event_weights(stats[n1][2], stats[n2][2])
        w1, w2 = w.w1, w.w2
        scores = snap.endpoint_scores(e)
        for i, j1, j2 in reads:
            (q1, clamped1), (q2, clamped2) = scores[j1], scores[j2]
            if clamped1 or clamped2:
                dec.clamps.append((k, i))
            # the inverse-normal combination of the shared scores
            z[i].append((look, w1 * q1 + w2 * q2))
    return snap.calendar_time


def decide_design(design: DesignSpec, snapshots: Sequence[AnalysisSnapshot],
                  futility_snapshot: Optional[FutilitySnapshot]) -> Decision:
    """Drive one simulated trial through a design; decisions only, no trace."""
    if len(snapshots) < design.n_analyses:
        raise MissingSlotError(
            f"design plans {design.n_analyses} analyses, got {len(snapshots)} snapshots")
    return _decide(design, futility_snapshot, _load_snapshot, snapshots)


def run_design(design: DesignSpec, snapshots: Sequence[AnalysisSnapshot],
               futility_snapshot: Optional[FutilitySnapshot]) -> DecisionTrace:
    """Drive one simulated trial through a design and return its trace."""
    return _trace(decide_design(design, snapshots, futility_snapshot))


@dataclass(frozen=True)
class ObservedData:
    """Observed-analysis inputs: futility HRs plus per-slot p-values.

    `p_values` maps a `HypothesisId` to a mapping of analysis index
    (0-based) to the already-combined one-sided p-value. (The config file
    keys these by slug, "full_pfs", "sub_os", ...; `parse_config` turns the
    slugs into `HypothesisId`s.)
    The per-endpoint FS intersection p-value is the continuing population's
    slot (single-population scenarios) or the Hochberg combination of the
    two population slots (both-population scenarios).
    """

    hr_full: Optional[float] = None
    hr_sub: Optional[float] = None
    p_values: Mapping[HypothesisId, Mapping[int, float]] = field(default_factory=dict)

    def __post_init__(self):
        """Raises ValueError naming each hazard ratio that is not positive and
        each p-value outside (0, 1], by hypothesis and analysis
        ("p_values.full_pfs.IA1"), with the rules `parse_config` applies."""
        problems = [(key, POSITIVE(getattr(self, key), skip_none=True))
                    for key in ("hr_full", "hr_sub")]
        names = dict(enumerate(ANALYSIS_NAMES))  # an index past the names keeps its number
        for h, by_analysis in self.p_values.items():
            problems += [(f"p_values.{_SLUG[h]}.{names.get(k, k)}", UNIT(p))
                         for k, p in by_analysis.items()]
        refuse(problems)

    def below(self, rule: FutilityRule) -> Optional[Tuple[bool, bool]]:
        """The gate's answers on the given hazard ratios; None where one is
        not given."""
        if self.hr_full is None or self.hr_sub is None:
            return None
        return below_thresholds(self.hr_full, self.hr_sub, rule)


def _load_observed(dec: Decision, k: int, observed: ObservedData) -> None:
    """Walks the plan's reads of analysis k. A hypothesis takes its given
    p-value, which it needs at each planned look until it is rejected. An
    FS intersection (AD, gGSD), read after its endpoint's hypotheses, takes
    their Hochberg p-value, or a lone population's own, once every
    continuing population has one."""
    mask = dec.analyses[-1] if dec.analyses else 0
    for look, _, reads, _ in dec.plan.loads[k]:
        p = []
        for t, *_ in reads:
            if t >= len(HYPOTHESES):
                if len(p) < len(reads) - 1:
                    continue
                p_t = p[0] if len(p) == 1 else hochberg_intersection(*p)
            elif (p_t := observed.p_values.get(HYPOTHESES[t], {}).get(k)) is not None:
                p.append(p_t)
            elif mask >> t & 1:
                continue
            else:
                raise MissingSlotError(
                    f"missing observed p-value for {HYPOTHESES[t]} at analysis {k + 1}")
            q, clamped = normal_score(p_t)
            if clamped:
                dec.clamps.append((k, t))
            dec.z[t].append((look, q))


def analyze_observed(design: DesignSpec, observed: ObservedData) -> DecisionTrace:
    """Replay the decision logic on user-supplied observed values."""
    return _trace(_decide(design, observed, _load_observed, observed))


def render_narrative(trace: DecisionTrace) -> str:
    """Plain-language account of an analyzed trial."""
    lines: List[str] = []
    design = trace.design.upper() if trace.design != "ggsd" else "gGSD"
    lines.append(f"Design: {design}")
    if trace.futility is not None:
        f = trace.futility
        lines.append(
            f"Futility analysis: HR(F) = {f.hr_full:.4g}, HR(S) = {f.hr_sub:.4g} "
            f"-> {f.selection.value.replace('_', ' ')}"
        )
    if trace.termination_reason == "futility":
        lines.append("Trial stopped for futility at the end of stage 1.")
        lines.append("No hypotheses tested")
        return "\n".join(lines)
    for rec in trace.analyses:
        name = ANALYSIS_NAMES[rec.index]
        for t in rec.tests:
            if "(FS)" in t.target_label:
                continue
            verdict = "rejected" if t.target_label in rec.newly_rejected else (
                "previously rejected" if t.confirmed else "not rejected")
            bound = (", no boundary (holds no alpha)" if math.isnan(t.boundary_z) else
                     f" vs boundary {t.boundary_z:.4f} (nominal p {t.boundary_p:.4g})")
            lines.append(f"{name}: {t.target_label} z = {t.z:.4f}{bound} -> {verdict}")
    if trace.termination_index is not None:
        lines.append(
            f"Trial terminated at {ANALYSIS_NAMES[trace.termination_index]} "
            f"({trace.termination_reason})."
        )
    confirmed = trace.confirmed()
    if not confirmed:
        lines.append("No hypotheses rejected")
    else:
        ordered = sorted(confirmed.items(), key=lambda kv: (kv[1], kv[0]))
        lines.append("Rejections: " + "; ".join(
            f"{label} rejected at {ANALYSIS_NAMES[idx]}" for label, idx in ordered))
    return "\n".join(lines)
