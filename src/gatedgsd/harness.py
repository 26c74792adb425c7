"""Monte Carlo driver: replicate trials, run every design arm, aggregate.

One replication generates a single dataset, schedules the analyses from its
pooled event counts, snapshots the test statistics once, and then feeds the
same snapshots to every design arm (the designs differ only in how they
test, not in the data). The snapshots compute what the arms read, and the
gated arms run before GSD: their stage-wise reads fill the pooled pairs GSD
reads, so each sample is counted once (`simdata`). Aggregation is an
associative fold over replication outcomes, so replications can be
partitioned across processes without changing the result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .engine import ANALYSIS_NAMES, DesignKind, DesignSpec
# The Monte Carlo decides each arm without building a trace. The entry is
# bound as `run_design`, the name perfbench/tracer.py wraps to time the
# engine per arm.
from .engine import decide_design as run_design
from .multiplicity import HYPOTHESES, Endpoint, HypothesisId, Population
from .simdata import (AnalysisSnapshot, ScenarioSpec, generate_trial, schedule_analyses,
                      snapshot_at)

__all__ = [
    "DesignAggregate",
    "SimulationReport",
    "replication_inputs",
    "run_monte_carlo",
    "simulation_tables",
    "summarize",
    "write_tables",
    "write_manifest",
    "atomic_write_text",
    "rows_to_csv",
    "true_null_hypotheses",
]


def true_null_hypotheses(setting: ScenarioSpec) -> Tuple[HypothesisId, ...]:
    """Hypotheses whose configured hazard ratios make them true nulls."""
    nulls = []
    for h in HYPOTHESES:
        hr_s = setting.hr_sub.get(h.endpoint, 1.0)
        hr_c = setting.hr_complement.get(h.endpoint, 1.0)
        is_null = hr_s == 1.0 if h.population is Population.SUB else (
            hr_s == 1.0 and hr_c == 1.0)
        if is_null:
            nulls.append(h)
    return tuple(nulls)


# A replication's termination bin is the number of analyses it ran: 0 is
# the futility stop.
TERMINATION_BINS = ("futility",) + ANALYSIS_NAMES


def _mask(hypotheses: Iterable[HypothesisId]) -> int:
    """The bitmask of some hypotheses, bit i for HYPOTHESES[i]."""
    return sum(1 << HYPOTHESES.index(h) for h in hypotheses)


def _pair(pop: Population) -> int:
    """The bitmask of a population's two hypotheses."""
    return _mask(HypothesisId(pop, ep) for ep in Endpoint)


# The subgroup's two hypotheses, whose joint rejection is power in S.
SUB_MASK = _pair(Population.SUB)


@dataclass
class DesignAggregate:
    """Counting accumulator for one design arm; merged associatively.

    `by_mask[m]` counts the replications whose confirmed rejections are the
    bitmask m (bit i: HYPOTHESES[i]) and `by_bin[b]` those that ended in
    TERMINATION_BINS[b]; labels appear only in `rejection_counts` and
    `termination`."""

    n: int = 0
    fwer_hits: int = 0
    power_s_hits: int = 0
    power_sorf_hits: int = 0
    by_mask: List[int] = field(default_factory=lambda: [0] * (1 << len(HYPOTHESES)))
    by_bin: List[int] = field(default_factory=lambda: [0] * len(TERMINATION_BINS))

    def add(self, mask: int, term_bin: int, null_mask: int, eligible: Sequence[int]):
        """Count one replication. `mask` holds its confirmed rejections,
        `null_mask` the true nulls and `eligible` the hypothesis pairs of the
        populations whose power counts, all as bitmasks."""
        self.n += 1
        self.by_bin[term_bin] += 1
        self.by_mask[mask] += 1
        if not mask:
            return
        if mask & null_mask:
            self.fwer_hits += 1
        if mask & SUB_MASK == SUB_MASK:
            self.power_s_hits += 1
        if any(mask & pair == pair for pair in eligible):
            self.power_sorf_hits += 1

    def merge(self, other: "DesignAggregate") -> "DesignAggregate":
        return DesignAggregate(
            n=self.n + other.n,
            fwer_hits=self.fwer_hits + other.fwer_hits,
            power_s_hits=self.power_s_hits + other.power_s_hits,
            power_sorf_hits=self.power_sorf_hits + other.power_sorf_hits,
            by_mask=[a + b for a, b in zip(self.by_mask, other.by_mask)],
            by_bin=[a + b for a, b in zip(self.by_bin, other.by_bin)],
        )

    @property
    def rejection_counts(self) -> Dict[str, int]:
        """Replications that confirmed each hypothesis, by label; a
        hypothesis never confirmed is absent."""
        counts = {str(h): sum(c for m, c in enumerate(self.by_mask) if m >> i & 1)
                  for i, h in enumerate(HYPOTHESES)}
        return {label: c for label, c in counts.items() if c}

    @property
    def termination(self) -> Dict[str, int]:
        return dict(zip(TERMINATION_BINS, self.by_bin))

    # -- point estimates with binomial Monte Carlo standard errors -------

    def _rate(self, hits: int) -> Tuple[float, float]:
        if self.n == 0:
            return math.nan, math.nan
        p = hits / self.n
        return p, math.sqrt(p * (1.0 - p) / self.n)

    @property
    def fwer(self):
        return self._rate(self.fwer_hits)

    @property
    def power_s(self):
        return self._rate(self.power_s_hits)

    @property
    def power_sorf(self):
        return self._rate(self.power_sorf_hits)


@dataclass
class SimulationReport:
    setting: str
    seed: int
    n_rep: int
    true_nulls: Tuple[str, ...]
    arms: Dict[str, DesignAggregate] = field(default_factory=dict)

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        if other.setting != self.setting or other.seed != self.seed:
            raise ValueError("cannot merge reports from different runs")
        merged = SimulationReport(self.setting, self.seed,
                                  self.n_rep + other.n_rep, self.true_nulls)
        for label in {**self.arms, **other.arms}:
            a = self.arms.get(label, DesignAggregate())
            b = other.arms.get(label, DesignAggregate())
            merged.arms[label] = a.merge(b)
        return merged


def replication_inputs(setting: ScenarioSpec, seed: int, rep: int
                       ) -> Tuple[List[AnalysisSnapshot], AnalysisSnapshot]:
    """What replication `rep` feeds every design arm: one snapshot per
    scheduled analysis, and the stage-1 futility snapshot with its hazard
    ratios."""
    trial = generate_trial(setting, (seed, rep))
    times = schedule_analyses(trial, setting)
    snaps = [snapshot_at(trial, t, setting) for t in times]
    fsnap = snapshot_at(trial, setting.stage1_cutoff, setting, with_hr=True)
    return snaps, fsnap


def _run_chunk(setting: ScenarioSpec, designs: Sequence[DesignSpec],
               seed: int, reps: Iterable[int]) -> SimulationReport:
    nulls = true_null_hypotheses(setting)
    null_mask = _mask(nulls)
    eligible = tuple(_pair(pop) for pop in Population
                     if any(h.population is pop and h not in nulls for h in HYPOTHESES))
    report = SimulationReport(setting.name, seed, 0, tuple(str(h) for h in nulls))
    aggregates = [report.arms.setdefault(d.label, DesignAggregate()) for d in designs]
    # Gated arms first: an arm that passes the futility gate reads stage-wise
    # blocks, which fill the pooled pairs GSD reads, so each sample is counted
    # once.
    arms = sorted(zip(designs, aggregates), key=lambda arm: arm[0].kind is DesignKind.GSD)
    for rep in reps:
        snaps, fsnap = replication_inputs(setting, seed, rep)
        for d, agg in arms:
            decision = run_design(d, snaps, fsnap)
            agg.add(decision.confirmed, len(decision.analyses), null_mask, eligible)
        report.n_rep += 1
    return report


def run_monte_carlo(setting: ScenarioSpec, designs: Sequence[DesignSpec],
                    n_rep: int, seed: int, threads: int = 1) -> SimulationReport:
    """Replicate `n_rep` trials through every design arm.

    Deterministic for a given (setting, designs, n_rep, seed): replication
    r draws from the dedicated substream seeded by (seed, r), so the result
    does not depend on how replications are partitioned across workers.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be >= 1")
    labels = [d.label for d in designs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"design labels must be unique: {labels}")
    if threads <= 1 or n_rep < 4 * threads:
        return _run_chunk(setting, designs, seed, range(n_rep))
    import multiprocessing as mp

    chunks = [range(i, n_rep, threads) for i in range(threads)]
    with mp.get_context("fork").Pool(threads) as pool:
        parts = pool.starmap(
            _run_chunk, [(setting, designs, seed, c) for c in chunks])
    report = parts[0]
    for part in parts[1:]:
        report = report.merge(part)
    return report


# -- tables and files ------------------------------------------------------


def summarize(reports: Sequence[SimulationReport]) -> Dict[str, List[dict]]:
    """Long-format rows for the FWER, power, and termination tables."""
    if not reports:
        raise ValueError("no reports to summarize")
    fwer_rows, power_rows, term_rows = [], [], []
    for rep in reports:
        for label in sorted(rep.arms):
            agg = rep.arms[label]
            fwer, fwer_se = agg.fwer
            ps, ps_se = agg.power_s
            psf, psf_se = agg.power_sorf
            base = {"setting": rep.setting, "arm": label, "reps": agg.n,
                    "seed": rep.seed}
            fwer_rows.append({**base,
                              "has_true_nulls": bool(rep.true_nulls),
                              "fwer": round(fwer, 6), "se": round(fwer_se, 6)})
            power_rows.append({**base,
                               "power_s": round(ps, 6), "se_s": round(ps_se, 6),
                               "power_sorf": round(psf, 6), "se_sorf": round(psf_se, 6)})
            for b, count in agg.termination.items():
                term_rows.append({**base, "stage": b, "count": count,
                                  "fraction": round(count / agg.n, 6) if agg.n else math.nan})
    return {"fwer": fwer_rows, "power": power_rows, "termination": term_rows}


def simulation_tables(power: SimulationReport, null: SimulationReport
                      ) -> Dict[str, List[dict]]:
    """The tables `gatedgsd simulate` writes: power and termination from the
    configured scenario's pass, FWER from its global-null pass."""
    tables = summarize([power])
    tables["fwer"] = summarize([null])["fwer"]
    return tables


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename; no partial files on error."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def rows_to_csv(rows: List[dict]) -> str:
    """CSV text with a header from the first row's keys; "" for no rows."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_tables(tables: Mapping[str, List[dict]], out_dir: str) -> Dict[str, str]:
    """Write fwer.csv, power.csv, termination.csv; returns path per table."""
    paths = {}
    for name, rows in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        atomic_write_text(path, rows_to_csv(rows))
        paths[name] = path
    return paths


def write_manifest(out_dir: str, config_echo: dict, seed: int, n_rep: int,
                   table_paths: Mapping[str, str], extra: Optional[dict] = None):
    """Run manifest: config echo, seed, and a content hash over the outputs."""
    h = hashlib.sha256()
    for name in sorted(table_paths):
        with open(table_paths[name], "rb") as f:
            h.update(name.encode())
            h.update(f.read())
    manifest = {
        "seed": seed,
        "replications": n_rep,
        "outputs": {k: os.path.basename(v) for k, v in sorted(table_paths.items())},
        "content_sha256": h.hexdigest(),
        "config": config_echo,
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
