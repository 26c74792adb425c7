"""Configuration loading: one YAML file describes a full evaluation run.

A config bundles the data-generating scenario, the per-design alpha
allocations, the combination-test weight sets, simulation controls, and
(optionally) observed values for an analyze run. Validation is collected:
every problem in the file is reported in one pass, with its field path.
The parser checks types and shapes; each value then goes through the rule
its constructor applies (`rules`), with None for a value already refused.

Weight sets and observed values come out as plain mappings: weight-set
label -> the arms' `DesignSpec.weights` (None for event-driven weights),
and design slug -> `ObservedData`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import yaml

from .boundaries import fraction_problem
from .combine import StageWeights
from .engine import (ANALYSIS_NAMES, DesignKind, DesignSpec, ObservedData, schedule_problem,
                     split_problems)
from .futility import FutilityRule
from .multiplicity import HYPOTHESIS_SLUGS, Endpoint, HypothesisId, Population
from .rules import ALPHA, COUNT, POSITIVE, SEED, UNIT
from .simdata import (SCENARIO_MAPS, SCENARIO_SCALARS, AnalysisTrigger, ScenarioSpec,
                      scenario_problems)

__all__ = ["ConfigError", "RunConfig", "parse_config", "build_designs"]

_ENDPOINTS = {"pfs": Endpoint.PFS, "os": Endpoint.OS}
# The keys under `scenario:`, and the populations of each table of per-endpoint
# maps (none for annual_dropout), from the paths of `simdata.SCENARIO_MAPS`.
_MAP_PATHS = [path.partition(".")[::2] for _, path, _ in SCENARIO_MAPS]  # (table, population)
_SCENARIO_TABLES = {t: tuple(p for u, p in _MAP_PATHS if u == t and p) for t, _ in _MAP_PATHS}
_SCENARIO_KEYS = tuple(key for key, _ in SCENARIO_SCALARS) + tuple(_SCENARIO_TABLES) + ("triggers",)
# libyaml's loader when PyYAML was built with it: the same documents and
# errors (file and line named) at a fraction of the pure-Python parse time.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """All validation problems found in a config file, with field paths."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass(frozen=True)
class RunConfig:
    name: str
    alpha: float
    scenario: ScenarioSpec
    alphas: Dict[str, Dict[HypothesisId, float]]  # "gsd" (also AD) and "ggsd"
    fractions: Dict[HypothesisId, Tuple[float, ...]]
    endpoint_analyses: Dict[Endpoint, Tuple[int, ...]]
    futility: FutilityRule
    # weight-set label -> its AD/gGSD arms' `DesignSpec.weights`, in file order
    weight_sets: Dict[str, Optional[Dict[Endpoint, Tuple[StageWeights, ...]]]]
    reps: int
    seed: int
    observed: Optional[Dict[str, ObservedData]] = None  # design slug -> observed values


def _is_number(v, integer: bool = False) -> bool:
    """A finite YAML number (an int, if `integer`). Python counts bools as
    ints, but YAML's true/false are neither numbers nor analysis indices,
    and no field takes .nan, .inf or an integer too large for a float."""
    if isinstance(v, bool):
        return False
    if isinstance(v, int):
        return abs(v) <= sys.float_info.max
    return not integer and isinstance(v, float) and math.isfinite(v)


class _Collector:
    """Walks the raw mapping, accumulating errors instead of raising."""

    def __init__(self):
        self.errors: List[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def expect_map(self, raw, path: str, allowed: Tuple[str, ...],
                   required: Optional[Tuple[str, ...]] = None) -> dict:
        """`raw` as a mapping ({} if not one); `required` defaults to all of `allowed`."""
        if not isinstance(raw, dict):
            self.fail(path, f"expected a mapping, got {type(raw).__name__}")
            return {}
        for key in raw:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        for key in allowed if required is None else required:
            if key not in raw:
                self.fail(f"{path}.{key}", "missing required key")
        return raw

    def check(self, path: str, value, rule):
        """`value` if `rule` accepts it; else None, with the reason under `path`."""
        reason = rule(value)
        if reason:
            self.fail(path, reason)
            return None
        return value

    def number(self, raw: dict, path: str, key: str, rule=None, integer=False):
        """`raw[key]` as a float (an int, if `integer`) that `rule` accepts;
        None where it is missing or refused."""
        if key not in raw:
            return None
        v = raw[key]
        if not _is_number(v):
            self.fail(f"{path}.{key}", f"expected a number, got {v!r}")
            return None
        if integer and int(v) != v:
            self.fail(f"{path}.{key}", f"expected an integer, got {v!r}")
            return None
        v = int(v) if integer else float(v)
        return v if rule is None else self.check(f"{path}.{key}", v, rule)


def _endpoint_map(col: _Collector, raw, path: str) -> Dict[Endpoint, Optional[float]]:
    m = col.expect_map(raw, path, ("pfs", "os"))
    return {ep: col.number(m, path, slug) for slug, ep in _ENDPOINTS.items()}


def _parse_scenario(col: _Collector, raw, name: str,
                    n_analyses: Optional[int]) -> Optional[ScenarioSpec]:
    m = col.expect_map(raw, "scenario", _SCENARIO_KEYS)
    if not m:
        return None
    fields = {key: col.number(m, "scenario", key, integer=rule.integer)
              for key, rule in SCENARIO_SCALARS}
    by_pop = {table: col.expect_map(m.get(table, {}), f"scenario.{table}", pops)
              for table, pops in _SCENARIO_TABLES.items() if pops}
    for (key, path, _), (table, pop) in zip(SCENARIO_MAPS, _MAP_PATHS):
        raw_map = by_pop[table].get(pop, {}) if pop else m.get(table, {})
        fields[key] = _endpoint_map(col, raw_map, f"scenario.{path}")
    triggers = []
    raw_triggers = m.get("triggers", [])
    if not isinstance(raw_triggers, list) or not raw_triggers:
        col.fail("scenario.triggers", "expected a nonempty list")
        raw_triggers = []
    elif n_analyses and len(raw_triggers) != n_analyses:
        col.fail("scenario.triggers", f"{len(raw_triggers)} triggers for {n_analyses} "
                                      "planned analyses (designs.endpoint_analyses)")
    for i, t in enumerate(raw_triggers):
        tm = col.expect_map(t, f"scenario.triggers[{i}]", ("endpoint", "events"))
        ep = tm.get("endpoint")
        endpoint = _ENDPOINTS.get(ep) if isinstance(ep, str) else None
        events = col.number(tm, f"scenario.triggers[{i}]", "events", integer=True)
        if endpoint is None:
            col.fail(f"scenario.triggers[{i}].endpoint", f"expected pfs|os, got {ep!r}")
        ok = endpoint is not None and events is not None
        triggers.append(AnalysisTrigger(endpoint, events) if ok else None)
    fields["triggers"] = tuple(triggers)
    for path, reason in scenario_problems(fields, skip_none=True):
        col.fail(f"scenario.{path}", reason)
    return None if col.errors else ScenarioSpec(name=name, **fields)


def _parse_weight_pairs(col: _Collector, raw, path: str,
                        looks: Optional[Tuple[int, ...]]) -> Tuple[StageWeights, ...]:
    """One endpoint's pairs, one per look; any number if the schedule was refused."""
    if not isinstance(raw, list) or (looks is not None and len(raw) != len(looks)):
        count = "" if looks is None else f"{len(looks)} "
        col.fail(path, f"expected a list of {count}(w1^2, w2^2) pairs")
        return ()
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
            col.fail(f"{path}[{i}]", f"expected [w1_squared, w2_squared], got {pair!r}")
            continue
        try:
            out.append(StageWeights.from_squares(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError) as exc:
            col.fail(f"{path}[{i}]", str(exc))
    return tuple(out)


def _parse_weights(col: _Collector, raw,
                   looks: Dict[Endpoint, Optional[tuple]]) -> Dict[str, Optional[dict]]:
    if not isinstance(raw, list) or not raw:
        col.fail("weights", "expected a nonempty list of weight sets")
        return {}
    sets: Dict[str, Optional[dict]] = {}
    for i, entry in enumerate(raw):
        path = f"weights[{i}]"
        m = col.expect_map(entry, path, ("label", "event_driven", "pfs", "os"), ("label",))
        label = m.get("label")
        if not isinstance(label, str) or not label:
            col.fail(f"{path}.label", "expected a nonempty string")
            continue
        if label in sets:
            col.fail(f"{path}.label", f"duplicate weight-set label {label!r}")
        event_driven = m.get("event_driven", False)
        if not isinstance(event_driven, bool):
            col.fail(f"{path}.event_driven", f"expected true or false, got {event_driven!r}")
        elif event_driven:
            for slug in _ENDPOINTS:
                if slug in m:
                    col.fail(f"{path}.{slug}", "a weight table cannot go with event_driven: true")
            sets[label] = None
            continue
        sets[label] = {ep: _parse_weight_pairs(col, m.get(slug), f"{path}.{slug}", looks[ep])
                       for slug, ep in _ENDPOINTS.items()}
    return sets


def _analysis_index(col: _Collector, key, path: str) -> Optional[int]:
    if isinstance(key, str) and key in ANALYSIS_NAMES:
        return ANALYSIS_NAMES.index(key)
    if _is_number(key, integer=True) and 1 <= key <= len(ANALYSIS_NAMES):
        return key - 1
    col.fail(path, f"expected an analysis name {ANALYSIS_NAMES} or 1-based index, got {key!r}")
    return None


def _parse_observed(col: _Collector, raw, endpoint_analyses: Dict[Endpoint, Optional[tuple]],
                    n_weight_sets: int) -> Dict[str, ObservedData]:
    m = col.expect_map(raw, "observed", ("hr_full", "hr_sub", "p_values"), ("p_values",))
    pv = m.get("p_values", {})
    if not isinstance(pv, dict):
        col.fail("observed.p_values", "expected a mapping keyed by design")
        pv = {}
    per_design: Dict[str, ObservedData] = {}
    hrs = {key: col.number(m, "observed", key, rule=POSITIVE) for key in ("hr_full", "hr_sub")}
    for design_slug, slots in pv.items():
        if design_slug not in ("gsd", "ad", "ggsd"):
            col.fail(f"observed.p_values.{design_slug}", "unknown design (gsd|ad|ggsd)")
            continue
        if design_slug != "gsd" and n_weight_sets > 1:
            # `analyze` replays one arm per design kind
            col.fail(f"observed.p_values.{design_slug}",
                     f"{n_weight_sets} weight sets make {n_weight_sets} {design_slug} arms; "
                     f"observed values can be replayed only with one weight set")
        dmap = col.expect_map(slots, f"observed.p_values.{design_slug}",
                              tuple(HYPOTHESIS_SLUGS), ())
        p_values: Dict[HypothesisId, Dict[int, float]] = {}
        for slug, h in HYPOTHESIS_SLUGS.items():
            if slug not in dmap:
                continue
            entry = dmap[slug]
            if not isinstance(entry, dict):
                col.fail(f"observed.p_values.{design_slug}.{slug}",
                         "expected a mapping of analysis -> p-value")
                continue
            per_look: Dict[int, float] = {}
            for key, p in entry.items():
                idx = _analysis_index(col, key, f"observed.p_values.{design_slug}.{slug}")
                if idx is None:
                    continue
                looks = endpoint_analyses.get(h.endpoint)
                if looks and idx not in looks:
                    col.fail(f"observed.p_values.{design_slug}.{slug}.{key}",
                             f"{h.endpoint.value} has no planned look at "
                             f"{ANALYSIS_NAMES[idx]} (designs.endpoint_analyses)")
                    continue
                p = col.number(entry, f"observed.p_values.{design_slug}.{slug}", key, rule=UNIT)
                if p is not None:
                    per_look[idx] = p
            p_values[h] = per_look
        per_design[design_slug] = ObservedData(**hrs, p_values=p_values)
    gated = [slug for slug in per_design if slug != "gsd"]
    for key in hrs:
        if gated and key not in m:
            col.fail(f"observed.{key}", f"missing required key: the futility gate of "
                                        f"observed.p_values.{gated[0]} reads it")
    return per_design


def parse_config(path: str) -> RunConfig:
    """Load and fully validate a run configuration.

    Raises ConfigError listing every problem found, not just the first.
    """
    with open(path, "r") as f:
        try:
            raw = yaml.load(f, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError([f"syntax: {exc}"]) from exc
    if raw is None:
        raise ConfigError(["file: empty configuration"])
    col = _Collector()
    top = col.expect_map(
        raw, "config",
        ("name", "alpha", "scenario", "designs", "weights", "simulation", "observed"),
        ("name", "alpha", "scenario", "designs", "weights", "simulation"))
    name = top.get("name") if isinstance(top.get("name"), str) else None
    if name is None:
        col.fail("config.name", "expected a string")
        name = "unnamed"
    alpha = col.number(top, "config", "alpha", rule=ALPHA)

    designs = col.expect_map(top.get("designs", {}), "designs",
                             ("endpoint_analyses", "fractions", "alphas", "futility"))

    # an endpoint's schedule, or None where it is refused: nothing is counted against it
    ea_raw = col.expect_map(designs.get("endpoint_analyses", {}), "designs.endpoint_analyses",
                            ("pfs", "os"))
    endpoint_analyses: Dict[Endpoint, Optional[Tuple[int, ...]]] = {}
    for slug, ep in _ENDPOINTS.items():
        val = ea_raw.get(slug)
        pth = f"designs.endpoint_analyses.{slug}"
        if not isinstance(val, list) or not all(_is_number(v, integer=True) for v in val):
            col.fail(pth, f"expected a list of analysis numbers (1 = {ANALYSIS_NAMES[0]}), "
                          f"got {val!r}")
            endpoint_analyses[ep] = None
        else:
            endpoint_analyses[ep] = col.check(pth, tuple(v - 1 for v in val), schedule_problem)

    fr_raw = col.expect_map(designs.get("fractions", {}), "designs.fractions", ("full", "sub"))
    fractions: Dict[HypothesisId, Tuple[float, ...]] = {}
    for pop_slug, pop in (("full", Population.FULL), ("sub", Population.SUB)):
        pm = col.expect_map(fr_raw.get(pop_slug, {}), f"designs.fractions.{pop_slug}",
                            ("pfs", "os"))
        for ep_slug, ep in _ENDPOINTS.items():
            val = pm.get(ep_slug)
            pth = f"designs.fractions.{pop_slug}.{ep_slug}"
            if not isinstance(val, list) or not all(map(_is_number, val)):
                col.fail(pth, f"expected a list of fractions, got {val!r}")
                continue
            fractions[HypothesisId(pop, ep)] = col.check(
                pth, tuple(float(v) for v in val), fraction_problem)
            looks = endpoint_analyses[ep]
            if looks is not None and len(val) != len(looks):
                col.fail(pth, f"{len(val)} fractions but endpoint has {len(looks)} "
                              "planned analyses")

    al_raw = col.expect_map(designs.get("alphas", {}), "designs.alphas", ("gsd", "ggsd"))
    alphas: Dict[str, Dict[HypothesisId, float]] = {}
    for design, by_population in (("gsd", False), ("ggsd", True)):
        path = f"designs.alphas.{design}"
        m = col.expect_map(al_raw.get(design, {}), path, tuple(HYPOTHESIS_SLUGS))
        alphas[design] = {h: col.number(m, path, slug) for slug, h in HYPOTHESIS_SLUGS.items()}
        for suffix, reason in split_problems(alpha, alphas[design], by_population,
                                             skip_none=True):
            col.fail(path + suffix, reason)

    fut_raw = col.expect_map(designs.get("futility", {}), "designs.futility",
                             ("theta_full", "theta_sub"))
    thetas = {key: col.number(fut_raw, "designs.futility", key, rule=POSITIVE)
              for key in ("theta_full", "theta_sub")}
    futility = FutilityRule(**thetas) if all(thetas.values()) else None

    weight_sets = _parse_weights(col, top.get("weights"), endpoint_analyses)

    sim = col.expect_map(top.get("simulation", {}), "simulation", ("reps", "seed"))
    reps = col.number(sim, "simulation", "reps", rule=COUNT, integer=True)
    seed = col.number(sim, "simulation", "seed", rule=SEED, integer=True)

    observed = None
    if "observed" in top:
        observed = _parse_observed(col, top["observed"], endpoint_analyses, len(weight_sets))

    n_analyses = None if None in endpoint_analyses.values() else (
        1 + max(max(v) for v in endpoint_analyses.values()))
    scenario = _parse_scenario(col, top.get("scenario", {}), name, n_analyses)
    if col.errors:
        raise ConfigError(col.errors)
    return RunConfig(
        name=name, alpha=alpha, scenario=scenario, alphas=alphas,
        fractions=fractions, endpoint_analyses=endpoint_analyses,
        futility=futility, weight_sets=weight_sets, reps=reps, seed=seed,
        observed=observed)


def build_designs(config: RunConfig) -> List[DesignSpec]:
    """Expand the config into concrete design arms.

    GSD ignores combination weights, so it contributes a single arm; AD and
    gGSD get one arm per weight set, labeled `kind:weight-label`.
    """
    arms: List[DesignSpec] = []
    common = dict(alpha=config.alpha, fractions=config.fractions,
                  endpoint_analyses=config.endpoint_analyses)
    try:
        arms.append(DesignSpec(kind=DesignKind.GSD, label="gsd",
                               initial_alphas=config.alphas["gsd"], **common))
        for label, weights in config.weight_sets.items():
            shared = dict(weights=weights, futility=config.futility, **common)
            arms.append(DesignSpec(kind=DesignKind.AD, label=f"ad:{label}",
                                   initial_alphas=config.alphas["gsd"], **shared))
            arms.append(DesignSpec(kind=DesignKind.GGSD, label=f"ggsd:{label}",
                                   initial_alphas=config.alphas["ggsd"], **shared))
    except ValueError as exc:
        raise ConfigError([f"designs: {exc}"]) from exc
    return arms
