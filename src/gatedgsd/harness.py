"""Monte Carlo driver: replicate trials, run every design arm, aggregate.

One replication generates a single dataset, schedules the analyses from its
pooled event counts, snapshots the test statistics once, and then feeds the
same snapshots to every design arm (the designs differ only in how they
test, not in the data). The snapshots compute what the arms read, and the
gated arms run before GSD: their stage-wise reads fill the pooled pairs GSD
reads, so each sample is counted once (`simdata`). Each arm keeps one
histogram of replications by (termination bin, confirmed mask), and every
rate, count and table is read off it. Merging adds histograms, so
replications can be partitioned across processes without changing the
result.
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
from .multiplicity import HYPOTHESES, Endpoint, HypothesisId, Population, hypothesis_mask
from .rules import COUNT, refuse
from .simdata import (AnalysisSnapshot, FutilitySnapshot, ScenarioSpec, generate_trial,
                      schedule_analyses, snapshot_at)

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
        hr_s = setting.hr_sub[h.endpoint]
        hr_c = setting.hr_complement[h.endpoint]
        is_null = hr_s == 1.0 if h.population is Population.SUB else (
            hr_s == 1.0 and hr_c == 1.0)
        if is_null:
            nulls.append(h)
    return tuple(nulls)


# A replication's termination bin is the number of analyses it ran: 0 is
# the futility stop.
TERMINATION_BINS = ("futility",) + ANALYSIS_NAMES
_N_MASKS = 1 << len(HYPOTHESES)


def _criteria(true_nulls: Iterable[HypothesisId]) -> Dict[str, List[int]]:
    """The confirmed masks that count toward each reported rate: FWER, a
    true null rejected; power in S, both S hypotheses rejected; power in S
    or F, both hypotheses of some population that is not wholly null."""
    null = hypothesis_mask(true_nulls)
    pairs = {pop: hypothesis_mask(HypothesisId(pop, ep) for ep in Endpoint) for pop in Population}
    sub = pairs[Population.SUB]
    live = [pair for pair in pairs.values() if pair & ~null]
    tests = {"fwer": lambda m: m & null,
             "power_s": lambda m: m & sub == sub,
             "power_sorf": lambda m: any(m & pair == pair for pair in live)}
    return {name: [m for m in range(_N_MASKS) if test(m)] for name, test in tests.items()}


@dataclass
class DesignAggregate:
    """Counting accumulator for one design arm, merged by addition.

    `counts[b * _N_MASKS + m]` counts the replications that ended in
    TERMINATION_BINS[b] with the confirmed rejections m (bit i:
    HYPOTHESES[i]). Every count, rate and table is read off it; labels
    appear only in `rejection_counts` and `termination`."""

    counts: List[int] = field(default_factory=lambda: [0] * (len(TERMINATION_BINS) * _N_MASKS))

    def merge(self, other: "DesignAggregate") -> "DesignAggregate":
        return DesignAggregate([a + b for a, b in zip(self.counts, other.counts)])

    @property
    def n(self) -> int:
        return sum(self.counts)

    def mask_totals(self) -> List[int]:
        """Replications per confirmed mask, over every termination bin."""
        return [sum(self.counts[m::_N_MASKS]) for m in range(_N_MASKS)]

    @property
    def rejection_counts(self) -> Dict[str, int]:
        """Replications that confirmed each hypothesis, by label; a
        hypothesis never confirmed is absent."""
        totals = self.mask_totals()
        counts = {str(h): sum(c for m, c in enumerate(totals) if m >> i & 1)
                  for i, h in enumerate(HYPOTHESES)}
        return {label: c for label, c in counts.items() if c}

    @property
    def termination(self) -> Dict[str, int]:
        return {label: sum(self.counts[b * _N_MASKS:(b + 1) * _N_MASKS])
                for b, label in enumerate(TERMINATION_BINS)}


@dataclass
class SimulationReport:
    setting: str
    seed: int
    true_nulls: Tuple[HypothesisId, ...]
    arms: Dict[str, DesignAggregate] = field(default_factory=dict)

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        if other.setting != self.setting or other.seed != self.seed:
            raise ValueError("cannot merge reports from different runs")
        merged = SimulationReport(self.setting, self.seed, self.true_nulls)
        for label in {**self.arms, **other.arms}:
            a = self.arms.get(label, DesignAggregate())
            b = other.arms.get(label, DesignAggregate())
            merged.arms[label] = a.merge(b)
        return merged

    def rates(self) -> Dict[str, Dict[str, Tuple[float, float]]]:
        """Per arm, the FWER, power_s and power_sorf rates, each with its
        binomial Monte Carlo standard error."""
        criteria = _criteria(self.true_nulls)
        out = {}
        for label, agg in self.arms.items():
            totals = agg.mask_totals()
            n = sum(totals)
            rates = out[label] = {}
            for name, masks in criteria.items():
                if n == 0:
                    rates[name] = math.nan, math.nan
                    continue
                p = sum(map(totals.__getitem__, masks)) / n
                rates[name] = p, math.sqrt(p * (1.0 - p) / n)
        return out


def replication_inputs(setting: ScenarioSpec, seed: int, rep: int
                       ) -> Tuple[List[AnalysisSnapshot], FutilitySnapshot]:
    """What replication `rep` feeds every design arm: one snapshot per
    scheduled analysis, and the stage-1 futility snapshot, which answers
    the futility gate."""
    trial = generate_trial(setting, (seed, rep))
    times = schedule_analyses(trial, setting)
    snaps = [snapshot_at(trial, t, setting) for t in times]
    fsnap = snapshot_at(trial, setting.stage1_cutoff, setting, with_hr=True)
    return snaps, fsnap


def _run_chunk(setting: ScenarioSpec, designs: Sequence[DesignSpec],
               seed: int, reps: Iterable[int]) -> SimulationReport:
    report = SimulationReport(setting.name, seed, true_null_hypotheses(setting))
    counts = [report.arms.setdefault(d.label, DesignAggregate()).counts for d in designs]
    # Gated arms first: an arm that passes the futility gate reads stage-wise
    # blocks, which fill the pooled pairs GSD reads, so each sample is counted
    # once.
    arms = sorted(zip(designs, counts), key=lambda arm: arm[0].kind is DesignKind.GSD)
    for rep in reps:
        snaps, fsnap = replication_inputs(setting, seed, rep)
        for d, arm_counts in arms:
            decision = run_design(d, snaps, fsnap)
            arm_counts[len(decision.analyses) * _N_MASKS + decision.confirmed] += 1
    return report


def run_monte_carlo(setting: ScenarioSpec, designs: Sequence[DesignSpec],
                    n_rep: int, seed: int, threads: int = 1) -> SimulationReport:
    """Replicate `n_rep` trials through every design arm.

    Deterministic for a given (setting, designs, n_rep, seed): replication
    r draws from the dedicated substream seeded by (seed, r), so the result
    does not depend on how replications are partitioned across workers.
    """
    refuse((("n_rep", COUNT(n_rep)),))
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
        rates = rep.rates()
        for label in sorted(rep.arms):
            termination = rep.arms[label].termination
            n = sum(termination.values())
            (fwer, fwer_se), (ps, ps_se), (psf, psf_se) = (
                rates[label][name] for name in ("fwer", "power_s", "power_sorf"))
            base = {"setting": rep.setting, "arm": label, "reps": n, "seed": rep.seed}
            fwer_rows.append({**base,
                              "has_true_nulls": bool(rep.true_nulls),
                              "fwer": round(fwer, 6), "se": round(fwer_se, 6)})
            power_rows.append({**base,
                               "power_s": round(ps, 6), "se_s": round(ps_se, 6),
                               "power_sorf": round(psf, 6), "se_sorf": round(psf_se, 6)})
            for b, count in termination.items():
                term_rows.append({**base, "stage": b, "count": count,
                                  "fraction": round(count / n, 6) if n else math.nan})
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
