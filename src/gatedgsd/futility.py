"""End-of-stage-1 futility gate and population selection.

A design's rule holds the hazard-ratio thresholds as given in its config.
`calibrate_threshold` derives a threshold from the large-sample normal
model for the log hazard ratio, log(HR_hat) ~ N(log(true HR), 4 / events)
under equal randomization, for choosing the thresholds beforehand
(`gatedgsd thresholds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .numerics import norm_quantile

__all__ = ["FutilityRule", "Selection", "SelectionDecision", "calibrate_threshold",
           "select_population", "selection_of"]


def calibrate_threshold(true_hr: float, events: int, gamma: float) -> float:
    """Hazard-ratio threshold with P(HR_hat > theta | true_hr) = gamma."""
    if true_hr <= 0:
        raise ValueError("true_hr must be positive")
    if events < 4:
        raise ValueError(f"need at least 4 events for the variance model, got {events}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return true_hr * math.exp(norm_quantile(1.0 - gamma) * 2.0 / math.sqrt(events))


@dataclass(frozen=True)
class FutilityRule:
    """Pre-specified decision thresholds for the end-of-stage-1 gate."""

    theta_full: float
    theta_sub: float

    def __post_init__(self):
        if self.theta_full <= 0 or self.theta_sub <= 0:
            raise ValueError("thresholds must be positive")


class Selection(Enum):
    CONTINUE_BOTH = "continue_both"
    CONTINUE_SUB_ONLY = "continue_sub_only"
    CONTINUE_FULL_ONLY = "continue_full_only"
    STOP_FUTILITY = "stop_futility"


class SelectionDecision:
    """The gate's selection and the two stage-1 PFS hazard ratios it rests on.

    The ratios are read from `source`, anything with `hr_full` and `hr_sub`,
    when they are asked for: a simulated trial's futility snapshot decides
    from Cox score signs and fits its Cox models only if a reader wants them.
    """

    __slots__ = ("selection", "_source")

    def __init__(self, selection: Selection, source):
        self.selection = selection
        self._source = source

    @property
    def hr_full(self) -> float:
        return self._source.hr_full

    @property
    def hr_sub(self) -> float:
        return self._source.hr_sub


class _HazardRatios(NamedTuple):
    hr_full: float
    hr_sub: float


def selection_of(full_ok: bool, sub_ok: bool) -> Selection:
    """The selection from whether each population passes the gate."""
    if full_ok and sub_ok:
        return Selection.CONTINUE_BOTH
    if sub_ok:
        return Selection.CONTINUE_SUB_ONLY
    if full_ok:
        return Selection.CONTINUE_FULL_ONLY
    return Selection.STOP_FUTILITY


def select_population(hr_full: float, hr_sub: float, rule: FutilityRule) -> SelectionDecision:
    """Population-selection decision from the observed stage-1 PFS HRs.

    The passing condition is strict (< theta); an HR exactly at the
    threshold fails the gate.
    """
    if hr_full <= 0 or hr_sub <= 0:
        raise ValueError("hazard ratios must be positive")
    return SelectionDecision(selection_of(hr_full < rule.theta_full, hr_sub < rule.theta_sub),
                             _HazardRatios(hr_full, hr_sub))
