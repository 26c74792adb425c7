"""Inverse-normal combination of stage-wise p-values.

`normal_score` is the one clamp-then-Phi^-1 step. Each analysis snapshot
fills its table of normal scores one endpoint at a time
(`simdata.AnalysisSnapshot.endpoint_scores`; `.scores` is the whole
table); the engine's wiring picks two per test, and its w1*q1 + w2*q2 on
them is bit for bit `inverse_normal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import norm_quantile
from .rules import NONNEGATIVE, SQUARE, sum_problem

__all__ = [
    "StageWeights",
    "event_weights",
    "inverse_normal",
    "normal_score",
    "P_CLAMP_EPS",
]

P_CLAMP_EPS = 1e-12


@dataclass(frozen=True)
class StageWeights:
    """Pre-specified combination weights with w1^2 + w2^2 = 1."""

    w1: float
    w2: float

    def __post_init__(self):
        reason = NONNEGATIVE(self.w1) or NONNEGATIVE(self.w2)
        squares = None if reason else sum_problem((self.w1 ** 2, self.w2 ** 2), 1)
        if reason or squares:
            raise ValueError(f"weights ({self.w1}, {self.w2}): {reason or 'squares ' + squares}")

    @classmethod
    def from_squares(cls, v1: float, v2: float) -> "StageWeights":
        """Weights from their squares, each in [0, 1] and summing to 1. w2 is
        sqrt(1 - v1): for pairs like (0.7, 0.3) it differs from sqrt(v2) in
        the last bit, and the committed runs were made with it."""
        reason = SQUARE(v1) or SQUARE(v2) or sum_problem((v1, v2), 1)
        if reason:
            raise ValueError(f"squared weights ({v1:g}, {v2:g}): {reason}")
        return cls(math.sqrt(v1), math.sqrt(1.0 - v1))


def event_weights(n1: int, n2: int) -> StageWeights:
    """Weights proportional to the square root of per-stage event counts, or
    (1, 0) when neither stage has an event. Event-driven arms take them at
    each look from the full population's stage-wise event counts, so they
    are not fixed before the trial; whether the combination test keeps its
    level with them is an open question."""
    if n1 < 0 or n2 < 0:
        raise ValueError("event counts must be nonnegative")
    total = n1 + n2
    w1, w2 = (math.sqrt(n1 / total), math.sqrt(n2 / total)) if total else (1.0, 0.0)
    # Valid by construction, so built without `__post_init__`'s check, which
    # would otherwise run on every event-driven load of the Monte Carlo.
    w = object.__new__(StageWeights)
    w.__dict__.update(w1=w1, w2=w2)
    return w


def clamp_p(p: float) -> Tuple[float, bool]:
    """Clamp a degenerate p-value into (0, 1); flags when clamping fired."""
    if p <= 0.0:
        return P_CLAMP_EPS, True
    if p >= 1.0:
        return 1.0 - P_CLAMP_EPS, True
    return p, False


def normal_score(p: float) -> Tuple[float, bool]:
    """q = Phi^-1(1 - p) of the clamped p-value, taken as -Phi^-1(p) so that
    a small p is not rounded by 1 - p, and whether clamping fired."""
    p, clamped = clamp_p(p)
    return -norm_quantile(p), clamped


def inverse_normal(p1: float, p2: float, w: StageWeights) -> float:
    """Combined Z: w1 * Phi^-1(1 - p1) + w2 * Phi^-1(1 - p2)."""
    return w.w1 * normal_score(p1)[0] + w.w2 * normal_score(p2)[0]
