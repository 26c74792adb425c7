"""Per-trial decision engines for the three designs.

GSD tests all four hypotheses on pooled data with group-sequential
boundaries. AD and gGSD apply the futility gate at the end of stage 1, then
combine stage-wise p-values per the continuation scenario; gGSD additionally
tests the populations hierarchically, each carrying the full alpha
internally.

Alpha passing follows one fixed graph: PFS<->OS within each population,
each edge with weight 1, and no alpha crosses populations. Under the
graphical update rule that graph has a closed form, computed here
(`_Engine._alpha`): a hypothesis holds its own alpha, plus its partner's
once the partner is rejected.

Simulated trials (`run_design`) and observed-data replay
(`analyze_observed`) run through one decision loop; they differ only in
where each analysis's statistics come from.

Within one analysis, testing iterates (test, reject, reallocate, recompute
boundaries, retest) to a fixed point, and boundary recomputation after an
alpha increase re-evaluates already-passed looks against the new lower
critical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .boundaries import cached_boundaries
from .combine import (CohortPValues, Scenario, StageWeights, TestTarget, clamp_p,
                      event_weights, intersection_target, inverse_normal, scenario_wiring)
from .futility import FutilityRule, Selection, SelectionDecision, select_population
from .multiplicity import (HYPOTHESES, Endpoint, HypothesisId, Population,
                           hochberg_intersection, intersection_boundary)
from .numerics import norm_cdf, norm_quantile
from .simdata import AnalysisSnapshot

__all__ = [
    "DesignKind",
    "DesignSpec",
    "ObservedData",
    "TestRecord",
    "AnalysisRecord",
    "DecisionTrace",
    "run_design",
    "analyze_observed",
    "render_narrative",
]

ANALYSIS_NAMES = ("IA1", "IA2", "FA")


class _Target(NamedTuple):
    label: str
    population: Optional[Population]  # None for an FS intersection
    endpoint: Endpoint
    partner: Optional[int]  # index of the same population's other endpoint


_OTHER_ENDPOINT = {Endpoint.PFS: Endpoint.OS, Endpoint.OS: Endpoint.PFS}
# The six test targets as indices 0..5: the four hypotheses in HYPOTHESES
# order, then the per-endpoint FS intersections in Endpoint order.
_TARGETS = tuple(
    [_Target(str(h), h.population, h.endpoint,
             HYPOTHESES.index(HypothesisId(h.population, _OTHER_ENDPOINT[h.endpoint])))
     for h in HYPOTHESES]
    + [_Target(f"{ep.value.upper()}(FS)", None, ep, None) for ep in Endpoint])
_FS_INDEX = {ep: len(HYPOTHESES) + i for i, ep in enumerate(Endpoint)}
_INDEX: Dict[TestTarget, int] = {h: i for i, h in enumerate(HYPOTHESES)}
_INDEX.update({intersection_target(ep): i for ep, i in _FS_INDEX.items()})


class DesignKind(Enum):
    GSD = "gsd"
    AD = "ad"
    GGSD = "ggsd"


class DesignConfigError(ValueError):
    """Inconsistent design specification."""


class MissingSlotError(ValueError):
    """A required snapshot or observed-data slot is absent."""


@dataclass(frozen=True)
class DesignSpec:
    """Everything pre-specified about one design arm."""

    kind: DesignKind
    alpha: float
    initial_alphas: Dict[HypothesisId, float]
    fractions: Dict[HypothesisId, Tuple[float, ...]]
    endpoint_analyses: Dict[Endpoint, Tuple[int, ...]]
    weights: Dict[Endpoint, Tuple[StageWeights, ...]] = field(default_factory=dict)
    event_driven_weights: bool = False
    futility: Optional[FutilityRule] = None
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise DesignConfigError(f"alpha must lie in (0, 0.5): {self.alpha}")
        missing = [h for h in HYPOTHESES if h not in self.initial_alphas]
        if missing:
            raise DesignConfigError(f"initial alphas missing for {missing}")
        tol = 1e-9
        if self.kind in (DesignKind.GSD, DesignKind.AD):
            total = sum(self.initial_alphas.values())
            if abs(total - self.alpha) > tol:
                raise DesignConfigError(
                    f"{self.kind.value}: initial alphas sum to {total}, expected {self.alpha}")
        else:
            for pop in Population:
                total = sum(a for h, a in self.initial_alphas.items() if h.population is pop)
                if abs(total - self.alpha) > tol:
                    raise DesignConfigError(
                        f"ggsd: {pop.value} alphas sum to {total}, expected {self.alpha}")
        for h in HYPOTHESES:
            fr = self.fractions.get(h)
            looks = self.endpoint_analyses.get(h.endpoint)
            if fr is None or looks is None:
                raise DesignConfigError(f"fractions/analysis schedule missing for {h}")
            if len(fr) != len(looks):
                raise DesignConfigError(
                    f"{h}: {len(fr)} fractions but {len(looks)} planned analyses")
        if self.n_analyses > len(ANALYSIS_NAMES):
            raise DesignConfigError(f"at most {len(ANALYSIS_NAMES)} analyses can be planned")
        if self.kind is not DesignKind.GSD and self.futility is None:
            raise DesignConfigError(f"{self.kind.value} requires a futility rule")
        if not self.event_driven_weights and self.kind is not DesignKind.GSD:
            for ep in Endpoint:
                w = self.weights.get(ep)
                if w is None or len(w) != len(self.endpoint_analyses[ep]):
                    raise DesignConfigError(f"weight table missing or misaligned for {ep}")

    @property
    def n_analyses(self) -> int:
        return 1 + max(max(v) for v in self.endpoint_analyses.values())

    def look_of(self, endpoint: Endpoint, analysis: int) -> Optional[int]:
        sched = self.endpoint_analyses[endpoint]
        return sched.index(analysis) if analysis in sched else None


@dataclass(frozen=True)
class TestRecord:
    target_label: str
    z: float
    boundary_z: float
    boundary_p: float
    alpha: float
    crossed: bool
    confirmed: bool


@dataclass
class AnalysisRecord:
    index: int
    calendar_time: Optional[float]
    tests: List[TestRecord] = field(default_factory=list)
    alpha_snapshot: Dict[str, float] = field(default_factory=dict)
    newly_rejected: List[str] = field(default_factory=list)


@dataclass
class DecisionTrace:
    design: str
    scenario: Optional[Scenario]
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
            "scenario": self.scenario.value if self.scenario else None,
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
                            "boundary_z": round(t.boundary_z, 6),
                            "nominal_p": round(t.boundary_p, 8),
                            "alpha": round(t.alpha, 8),
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


def _scenario_of(decision: SelectionDecision) -> Optional[Scenario]:
    return {
        Selection.CONTINUE_BOTH: Scenario.BOTH,
        Selection.CONTINUE_SUB_ONLY: Scenario.S_ONLY,
        Selection.CONTINUE_FULL_ONLY: Scenario.F_ONLY,
        Selection.STOP_FUTILITY: None,
    }[decision.selection]


class _Engine:
    """Shared fixed-point testing machinery for simulated and observed data.

    Targets are the indices of `_TARGETS`; `rejected` is a bitmask over
    them. Labels are looked up only where the trace is written.
    """

    def __init__(self, design: DesignSpec, scenario: Optional[Scenario],
                 futility_decision: Optional[SelectionDecision]):
        self.design = design
        self.scenario = scenario
        self.trace = DecisionTrace(
            design=design.kind.value, scenario=scenario, futility=futility_decision)
        self.z_hist: Dict[int, Dict[int, float]] = {}
        # boundary/alpha in effect when a target was rejected, for reporting
        self.reject_info: Dict[int, Tuple[float, float]] = {}
        self.rejected = 0
        self.gate_open = not (design.kind is DesignKind.GGSD and scenario is Scenario.BOTH)
        self.fractions = tuple(design.fractions[h] for h in HYPOTHESES)
        pops = {Scenario.S_ONLY: (Population.SUB,),
                Scenario.F_ONLY: (Population.FULL,)}.get(scenario, tuple(Population))
        self.in_scope = tuple(i for i, h in enumerate(HYPOTHESES) if h.population in pops)
        self.base = tuple(self._base_alpha(h, pops) for h in HYPOTHESES)

    def _base_alpha(self, h: HypothesisId, pops: Tuple[Population, ...]) -> float:
        """Alpha before any rejection. GSD and AD keep the original
        allocations (alpha of a dropped population is not reallocated: only
        a rejection moves alpha). gGSD re-levels each population at the full
        alpha; with one population continuing, all of it starts on PFS and
        passes to OS. A hypothesis out of scope holds none.
        """
        d = self.design
        if h.population not in pops:
            return 0.0
        if d.kind is DesignKind.GGSD and len(pops) == 1:
            return d.alpha if h.endpoint is Endpoint.PFS else 0.0
        return d.initial_alphas[h]

    # -- state helpers -------------------------------------------------

    def _rejected(self, i: int) -> bool:
        return bool(self.rejected >> i & 1)

    def _alpha(self, i: int) -> float:
        """The graphical update rule on the PFS<->OS edges in closed form."""
        if self._rejected(i):
            return 0.0
        partner = _TARGETS[i].partner
        if self._rejected(partner):
            return self.base[i] + self.base[partner]
        return self.base[i]

    def _bounds(self, i: int):
        alpha = round(self._alpha(i), 12)
        return cached_boundaries(alpha, self.fractions[i])

    def _testable(self, i: int) -> bool:
        # Out-of-scope hypotheses carry no alpha, so they never pass.
        if self._rejected(i) or self._alpha(i) <= 0.0:
            return False
        return self.gate_open or _TARGETS[i].population is not Population.FULL

    def _intersection_crossed(self, t: int) -> Tuple[bool, float, float]:
        """Evaluate FS intersection `t` over all recorded looks.

        Boundary per look: minimum critical value over the member
        hypotheses currently carrying allocated alpha (and, for gGSD,
        admitted by the hierarchy gate).
        """
        hist = self.z_hist.get(t, {})
        ep = _TARGETS[t].endpoint
        live = [i for i in self.in_scope if _TARGETS[i].endpoint is ep and self._testable(i)]
        if not hist or not live:
            return False, math.nan, math.nan
        crossed = False
        last_c = math.nan
        for look, z in sorted(hist.items()):
            cs = []
            for i in live:
                b = self._bounds(i)
                if look < len(b.z_bounds):
                    cs.append(b.z_bounds[look])
            if not cs:
                continue
            c = intersection_boundary(cs)
            last_c = c
            if z >= c:
                crossed = True
        return crossed, last_c, hist[max(hist)]

    def _elementary_crossed(self, i: int) -> Tuple[bool, float, float]:
        hist = self.z_hist.get(i, {})
        if not hist:
            return False, math.nan, math.nan
        b = self._bounds(i)
        crossed = any(z >= b.z_bounds[look] for look, z in hist.items()
                      if look < len(b.z_bounds))
        last_look = max(hist)
        c = b.z_bounds[min(last_look, len(b.z_bounds) - 1)]
        return crossed, c, hist[last_look]

    def enter(self, target: TestTarget, look: int, z: float):
        """Record a target's statistic at one of its looks."""
        self.z_hist.setdefault(_INDEX[target], {})[look] = z

    # -- the per-analysis fixed point -----------------------------------

    def run_analysis(self, k: int, calendar_time: Optional[float]):
        record = AnalysisRecord(index=k, calendar_time=calendar_time)
        gated = self.design.kind is not DesignKind.GSD
        changed = True
        while changed:
            changed = False
            if gated:
                for t in _FS_INDEX.values():
                    if self._rejected(t):
                        continue
                    crossed, c, z = self._intersection_crossed(t)
                    if crossed:
                        self.trace.rejected_at[_TARGETS[t].label] = k
                        self.reject_info[t] = (c, math.nan)
                        self.rejected |= 1 << t
                        changed = True
            for i in self.in_scope:
                if not self._testable(i) or i not in self.z_hist:
                    continue
                crossed, c, z = self._elementary_crossed(i)
                if not crossed:
                    continue
                if gated and not self._rejected(_FS_INDEX[_TARGETS[i].endpoint]):
                    continue  # blocked by the closed-testing gate
                label = _TARGETS[i].label
                self.trace.rejected_at[label] = k
                self.reject_info[i] = (c, self._alpha(i))
                record.newly_rejected.append(label)
                self.rejected |= 1 << i
                if _TARGETS[i].population is Population.SUB:
                    self.gate_open = True
                changed = True
        self._record_tests(record)
        record.alpha_snapshot = {
            _TARGETS[i].label: self._alpha(i) for i in self.in_scope
        }
        self.trace.analyses.append(record)

    def _record_tests(self, record: AnalysisRecord):
        """Snapshot every target's latest statistic against its boundary."""
        for t, hist in self.z_hist.items():
            look = max(hist)
            if _TARGETS[t].population is not None:
                if t not in self.in_scope:
                    continue
                alpha = self._alpha(t)
                if self._rejected(t):
                    c, alpha = self.reject_info[t]
                    crossed = True
                elif alpha > 0.0:
                    b = self._bounds(t)
                    idx = min(look, len(b.z_bounds) - 1)
                    c = b.z_bounds[idx]
                    crossed = self._elementary_crossed(t)[0]
                else:
                    # Carrying no alpha (e.g. gGSD's OS ahead of the PFS
                    # handover): no live boundary to show.
                    c = math.nan
                    crossed = False
            else:
                if self._rejected(t):
                    c, _ = self.reject_info[t]
                    crossed = True
                else:
                    crossed, c, _ = self._intersection_crossed(t)
                alpha = math.nan
            record.tests.append(TestRecord(
                target_label=_TARGETS[t].label,
                z=hist[look],
                boundary_z=c,
                boundary_p=1.0 - norm_cdf(c) if not math.isnan(c) else math.nan,
                alpha=alpha,
                crossed=crossed,
                confirmed=self._rejected(t),
            ))

    def all_rejected(self) -> bool:
        return all(self._rejected(i) for i in self.in_scope)

    def finish(self, k: int):
        if self.all_rejected():
            self.trace.termination_index = k
            self.trace.termination_reason = "all-rejected"
            return True
        if k == self.design.n_analyses - 1:
            self.trace.termination_index = k
            self.trace.termination_reason = "reached-FA"
            return True
        return False


def _decide(design: DesignSpec, hr_full: Optional[float], hr_sub: Optional[float],
            load: Callable[[_Engine, int], Optional[float]]) -> DecisionTrace:
    """The one decision loop behind `run_design` and `analyze_observed`.

    Applies the end-of-stage-1 futility gate (AD, gGSD) to the two PFS
    hazard ratios, then walks the planned analyses: `load(eng, k)` enters
    analysis k's statistics through `eng.enter` and returns its calendar time,
    and the fixed point runs until every hypothesis in scope is rejected or
    the final analysis is reached.
    """
    scenario = None
    futility_decision = None
    if design.kind is not DesignKind.GSD:
        if hr_full is None or hr_sub is None:
            raise MissingSlotError("stage-1 futility hazard ratios (HR(F), HR(S)) are required")
        futility_decision = select_population(hr_full, hr_sub, design.futility)
        if futility_decision.selection is Selection.STOP_FUTILITY:
            return DecisionTrace(design=design.kind.value, scenario=None,
                                 futility=futility_decision, termination_reason="futility")
        scenario = _scenario_of(futility_decision)
    eng = _Engine(design, scenario, futility_decision)
    for k in range(design.n_analyses):
        eng.run_analysis(k, load(eng, k))
        if eng.finish(k):
            break
    return eng.trace


def _weights_for(design: DesignSpec, ep: Endpoint, look: int,
                 snap: AnalysisSnapshot) -> StageWeights:
    if design.event_driven_weights:
        n1 = snap.events[("stage1", Population.FULL, ep)]
        n2 = snap.events[("stage2", Population.FULL, ep)]
        if n1 + n2 == 0:
            return StageWeights(1.0, 0.0)
        return event_weights(n1, n2)
    return design.weights[ep][look]


def _load_snapshot(eng: _Engine, k: int, snap: AnalysisSnapshot) -> float:
    """GSD: pooled logrank z. AD/gGSD: inverse-normal combination of the
    stage-wise cohort p-values, wired per continuation scenario."""
    design = eng.design
    for ep in Endpoint:
        look = design.look_of(ep, k)
        if look is None:
            continue
        if design.kind is DesignKind.GSD:
            for pop in Population:
                eng.enter(HypothesisId(pop, ep), look, snap.z[("pooled", pop, ep)])
            continue
        cohorts = CohortPValues(
            stage1_full=snap.p[("stage1", Population.FULL, ep)],
            stage1_sub=snap.p[("stage1", Population.SUB, ep)],
            stage2_full=snap.p[("stage2", Population.FULL, ep)],
            stage2_sub=snap.p[("stage2", Population.SUB, ep)],
        )
        w = _weights_for(design, ep, look, snap)
        for target, p1, p2 in scenario_wiring(eng.scenario, ep, cohorts):
            _, clamped1 = clamp_p(p1)
            _, clamped2 = clamp_p(p2)
            if clamped1 or clamped2:
                eng.trace.warnings.append(
                    f"analysis {k + 1}: degenerate p-value clamped for "
                    f"{_TARGETS[_INDEX[target]].label}")
            eng.enter(target, look, inverse_normal(p1, p2, w))
    return snap.calendar_time


def run_design(design: DesignSpec, snapshots: Sequence[AnalysisSnapshot],
               futility_snapshot: Optional[AnalysisSnapshot]) -> DecisionTrace:
    """Drive one simulated trial through a design and return its trace."""
    if len(snapshots) < design.n_analyses:
        raise MissingSlotError(
            f"design plans {design.n_analyses} analyses, got {len(snapshots)} snapshots")
    hrs = (None, None) if futility_snapshot is None else (
        futility_snapshot.hr_full, futility_snapshot.hr_sub)
    return _decide(design, *hrs, lambda eng, k: _load_snapshot(eng, k, snapshots[k]))


@dataclass(frozen=True)
class ObservedData:
    """Observed-analysis inputs: futility HRs plus per-slot p-values.

    `p_values` maps hypothesis key ("full_pfs", "sub_os", ...) to a mapping
    of analysis index (0-based) to the already-combined one-sided p-value.
    The per-endpoint FS intersection p-value is the continuing population's
    slot (single-population scenarios) or the Hochberg combination of the
    two population slots (both-population scenarios).
    """

    hr_full: Optional[float] = None
    hr_sub: Optional[float] = None
    p_values: Mapping[HypothesisId, Mapping[int, float]] = field(default_factory=dict)


def _observed_z(p: float) -> float:
    p, _ = clamp_p(p)
    return norm_quantile(1.0 - p)


def _load_observed(eng: _Engine, k: int, observed: ObservedData) -> None:
    design, scenario = eng.design, eng.scenario
    for ep in Endpoint:
        look = design.look_of(ep, k)
        if look is None:
            continue
        for pop in Population:
            h = HypothesisId(pop, ep)
            p = observed.p_values.get(h, {}).get(k)
            if p is not None:
                eng.enter(h, look, _observed_z(p))
        if design.kind is DesignKind.GSD:
            continue
        p_full = observed.p_values.get(HypothesisId(Population.FULL, ep), {}).get(k)
        p_sub = observed.p_values.get(HypothesisId(Population.SUB, ep), {}).get(k)
        p_fs = None
        if scenario is Scenario.F_ONLY and p_full is not None:
            p_fs = p_full
        elif scenario is Scenario.S_ONLY and p_sub is not None:
            p_fs = p_sub
        elif p_full is not None and p_sub is not None:
            p_fs = hochberg_intersection(p_full, p_sub)
        if p_fs is not None:
            eng.enter(intersection_target(ep), look, _observed_z(p_fs))
    _check_required_slots(eng, k)


def analyze_observed(design: DesignSpec, observed: ObservedData) -> DecisionTrace:
    """Replay the decision logic on user-supplied observed values."""
    return _decide(design, observed.hr_full, observed.hr_sub,
                   lambda eng, k: _load_observed(eng, k, observed))


def _check_required_slots(eng: _Engine, k: int):
    """Every unrejected hypothesis of the continuing populations needs its
    p-value at each of its planned looks."""
    for ep in Endpoint:
        look = eng.design.look_of(ep, k)
        if look is None:
            continue
        for i in eng.in_scope:
            if (_TARGETS[i].endpoint is ep and not eng._rejected(i)
                    and look not in eng.z_hist.get(i, {})):
                raise MissingSlotError(
                    f"missing observed p-value for {_TARGETS[i].label} at analysis {k + 1}")


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
            lines.append(
                f"{name}: {t.target_label} z = {t.z:.4f} vs boundary {t.boundary_z:.4f} "
                f"(nominal p {t.boundary_p:.4g}) -> {verdict}"
            )
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
