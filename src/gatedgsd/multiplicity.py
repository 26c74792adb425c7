"""Familywise-error machinery.

The four population-by-endpoint hypotheses and the Hochberg intersection
p-value across populations. An intersection test's boundary is the
minimum of its members' boundaries (`engine._Plan.tests`). Alpha passes
only between PFS and OS within one population, each edge with weight 1,
and never across populations; the engine computes that graph's update
rule in closed form (`engine._Plan.levels`). The closed-testing
gate that turns boundary crossings into confirmed rejections lives in the
engine's per-analysis fixed point (`engine._fixed_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

__all__ = [
    "Population",
    "Endpoint",
    "HypothesisId",
    "HYPOTHESES",
    "HYPOTHESIS_SLUGS",
    "hypothesis_mask",
    "hochberg_intersection",
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


def hypothesis_mask(hypotheses: Iterable[HypothesisId]) -> int:
    """The bitmask of some hypotheses: bit i is HYPOTHESES[i]."""
    return sum(1 << HYPOTHESES.index(h) for h in hypotheses)


def hochberg_intersection(p_full: float, p_sub: float) -> float:
    """Equal-weight two-hypothesis Hochberg intersection p-value."""
    if not (0.0 <= p_full <= 1.0 and 0.0 <= p_sub <= 1.0):
        raise ValueError(f"p-values must lie in [0, 1]: {p_full}, {p_sub}")
    return min(2.0 * min(p_full, p_sub), max(p_full, p_sub))
