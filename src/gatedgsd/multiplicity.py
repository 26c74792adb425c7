"""Familywise-error machinery.

Graphical alpha reallocation over the four population-by-endpoint
hypotheses, the Hochberg intersection p-value across populations, and the
boundary of that intersection test. The closed-testing gate that turns
boundary crossings into confirmed rejections lives in the engine's
per-analysis fixed point (`engine._Engine.run_analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple

__all__ = [
    "Population",
    "Endpoint",
    "HypothesisId",
    "HYPOTHESES",
    "HYPOTHESIS_SLUGS",
    "HypothesisGraph",
    "hochberg_intersection",
    "intersection_boundary",
]


class Population(Enum):
    FULL = "full"
    SUB = "sub"


class Endpoint(Enum):
    PFS = "pfs"
    OS = "os"


@dataclass(frozen=True, order=True)
class HypothesisId:
    population: Population
    endpoint: Endpoint

    def __str__(self) -> str:
        pop = "F" if self.population is Population.FULL else "S"
        return f"{self.endpoint.value.upper()}({pop})"


H_F_OS = HypothesisId(Population.FULL, Endpoint.OS)
H_F_PFS = HypothesisId(Population.FULL, Endpoint.PFS)
H_S_OS = HypothesisId(Population.SUB, Endpoint.OS)
H_S_PFS = HypothesisId(Population.SUB, Endpoint.PFS)
HYPOTHESES = (H_F_OS, H_F_PFS, H_S_OS, H_S_PFS)
# Config and scenario spelling of each hypothesis.
HYPOTHESIS_SLUGS = {
    "full_pfs": H_F_PFS,
    "full_os": H_F_OS,
    "sub_pfs": H_S_PFS,
    "sub_os": H_S_OS,
}


def hochberg_intersection(p_full: float, p_sub: float) -> float:
    """Equal-weight two-hypothesis Hochberg intersection p-value."""
    if not (0.0 <= p_full <= 1.0 and 0.0 <= p_sub <= 1.0):
        raise ValueError(f"p-values must lie in [0, 1]: {p_full}, {p_sub}")
    return min(2.0 * min(p_full, p_sub), max(p_full, p_sub))


def intersection_boundary(z_bounds: Iterable[float]) -> float:
    """Boundary for an intersection test: the minimum of its members."""
    values = list(z_bounds)
    if not values:
        raise ValueError("intersection boundary needs at least one member boundary")
    return min(values)


class GraphStateError(RuntimeError):
    """Raised on an inconsistent graph operation (e.g. double rejection)."""


@dataclass(frozen=True)
class HypothesisGraph:
    """Immutable state of the graphical testing procedure.

    `alphas` holds the current one-sided level of every live hypothesis;
    `transitions` the reallocation weights g(from, to); `rejected` the
    hypotheses already removed from the graph.
    """

    alphas: Mapping[HypothesisId, float]
    transitions: Mapping[Tuple[HypothesisId, HypothesisId], float] = field(default_factory=dict)
    rejected: FrozenSet[HypothesisId] = frozenset()

    def __post_init__(self):
        for h, a in self.alphas.items():
            if a < 0:
                raise ValueError(f"negative alpha for {h}")
        out: Dict[HypothesisId, float] = {}
        for (src, dst), g in self.transitions.items():
            if src == dst:
                raise ValueError(f"self-loop transition on {src}")
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"transition weight out of [0, 1]: g({src},{dst})={g}")
            out[src] = out.get(src, 0.0) + g
        for src, total in out.items():
            if total > 1.0 + 1e-12:
                raise ValueError(f"outgoing weights from {src} sum to {total} > 1")

    def alpha(self, h: HypothesisId) -> float:
        return 0.0 if h in self.rejected else self.alphas.get(h, 0.0)

    def live(self) -> Set[HypothesisId]:
        return {h for h in self.alphas if h not in self.rejected}

    def total_alpha(self) -> float:
        return sum(self.alpha(h) for h in self.live())

    def weight(self, src: HypothesisId, dst: HypothesisId) -> float:
        return self.transitions.get((src, dst), 0.0)

    def reject(self, h: HypothesisId) -> "HypothesisGraph":
        """Remove h and reallocate its alpha per the graphical update rule."""
        if h in self.rejected:
            raise GraphStateError(f"{h} is already rejected")
        if h not in self.alphas:
            raise GraphStateError(f"{h} is not a node of this graph")
        remaining = [l for l in self.alphas if l != h and l not in self.rejected]
        new_alphas = {l: self.alphas[l] + self.alpha(h) * self.weight(h, l) for l in remaining}
        new_trans: Dict[Tuple[HypothesisId, HypothesisId], float] = {}
        for l in remaining:
            for m in remaining:
                if l == m:
                    continue
                denom = 1.0 - self.weight(l, h) * self.weight(h, l)
                if denom > 1e-12:
                    g = (self.weight(l, m) + self.weight(l, h) * self.weight(h, m)) / denom
                else:
                    g = 0.0
                if g > 0.0:
                    new_trans[(l, m)] = min(g, 1.0)
        return HypothesisGraph(
            alphas=new_alphas,
            transitions=new_trans,
            rejected=self.rejected | {h},
        )

