"""Spans around the calls into each gatedgsd layer, recorded from outside.

The wrappers replace module attributes under the names the package looks
them up by at call time (`gatedgsd.harness.generate_trial`, ...), so the
spans sit on the calls the real harness makes. Nothing under `src/` is
edited. A span is (name, start, end, parent index, replication id); spans
stay in memory and are written out when the run ends. Only calls made in
this process are traced: the wrappers are closures, which a pool cannot
send to its workers, so they are removed before any threads>1 call.

Counters are read from public return values: `AnalysisSnapshot.z` and
`.zero_event_slots`, `DecisionTrace.analyses`, `.warnings` and
`.futility.selection`, and `cached_boundaries.cache_info()`. Non-converged
Cox fits cannot be counted from outside: `cox_hazard_ratio` returns no flag.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

Span = Tuple[str, float, float, int, int]

# Span names per layer; a traced workload fails if one it expects is absent.
MC_LAYERS = ("harness.chunk", "simdata.generate", "simdata.schedule",
             "simdata.snapshot", "simdata.futility_snapshot",
             "engine.run_design.gsd", "engine.run_design.ad",
             "engine.run_design.ggsd", "boundaries.compute")
REPLAY_LAYERS = ("cli.boundaries", "cli.analyze", "config.parse",
                 "config.build_designs", "engine.analyze_observed",
                 "engine.render", "boundaries.compute")


class Tracer:
    """Installs span-recording wrappers and aggregates what they saw."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.rep = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.rep))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.rep)

    def _wrap(self, name: str, fn: Callable, on_result=None,
              on_error=None, rep_of=None) -> Callable:
        def wrapper(*args, **kwargs):
            if rep_of is not None:
                self.rep = rep_of(args, kwargs)
            try:
                out = self.call(name(args, kwargs) if callable(name) else name,
                                fn, args, kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if on_result is not None:
                on_result(args, kwargs, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced entry point; `uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from gatedgsd import boundaries, cli, engine, harness
        from gatedgsd.boundaries import cached_boundaries
        from gatedgsd.simdata import SchedulingError

        def snapshot_name(args, kwargs):
            with_hr = kwargs.get("with_hr", args[3] if len(args) > 3 else False)
            return "simdata.futility_snapshot" if with_hr else "simdata.snapshot"

        def on_snapshot(args, kwargs, snap):
            if snap.hr_full is None and snap.hr_sub is None:
                self.counters["snapshot.calls"] += 1
                self.counters["snapshot.slots"] += len(snap.z)
                self.counters["snapshot.zero_event_slots"] += len(snap.zero_event_slots)

        def on_schedule_error(exc):
            if isinstance(exc, SchedulingError):
                self.counters["schedule.failed"] += 1

        def on_trace(args, kwargs, trace):
            kind = args[0].kind.value
            self.counters[f"design.{kind}.calls"] += 1
            self.counters["design.analyses"] += len(trace.analyses)
            self.counters["design.clamped_p"] += sum(
                "clamped" in w for w in trace.warnings)
            if trace.futility is not None:
                self.counters[f"selection.{trace.futility.selection.value}"] += 1

        def rep_of(args, kwargs):
            seed = args[1] if len(args) > 1 else kwargs.get("seed")
            return int(seed[1]) if isinstance(seed, tuple) else -1

        def design_name(args, kwargs):
            return f"engine.run_design.{args[0].kind.value}"

        def chunk(setting, designs, seed, reps):
            reps = list(reps)
            hits = cached_boundaries.cache_info().hits
            self.rep = -1
            out = self.call("harness.chunk", original_chunk,
                            (setting, designs, seed, reps), {})
            self.counters["chunk.reps"] += len(reps)
            self.counters["boundaries.cache_hits"] += (
                cached_boundaries.cache_info().hits - hits)
            return out

        original_chunk = harness._run_chunk

        self._patch(harness, "generate_trial", self._wrap(
            "simdata.generate", harness.generate_trial, rep_of=rep_of))
        self._patch(harness, "schedule_analyses", self._wrap(
            "simdata.schedule", harness.schedule_analyses,
            on_error=on_schedule_error))
        self._patch(harness, "snapshot_at", self._wrap(
            snapshot_name, harness.snapshot_at, on_result=on_snapshot))
        self._patch(harness, "run_design", self._wrap(
            design_name, harness.run_design, on_result=on_trace))
        self._patch(boundaries, "compute_boundaries", self._wrap(
            "boundaries.compute", boundaries.compute_boundaries))
        self._patch(harness, "_run_chunk", chunk)
        for attr, name in (("cmd_boundaries", "cli.boundaries"),
                           ("cmd_analyze", "cli.analyze"),
                           ("parse_config", "config.parse"),
                           ("build_designs", "config.build_designs"),
                           ("analyze_observed", "engine.analyze_observed"),
                           ("render_narrative", "engine.render")):
            self._patch(cli, attr, self._wrap(name, getattr(cli, attr)))
        self._patch(engine.DecisionTrace, "to_dict", self._wrap(
            "engine.render", engine.DecisionTrace.to_dict))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        agg: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child[i]
        return dict(agg)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str):
        """All spans, written once at the end of the run."""
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "rep"],
                       "spans": self.spans}, f)
        os.replace(tmp, path)

