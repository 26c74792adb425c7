"""End-of-stage-1 futility gate and population selection.

A design's rule holds the hazard-ratio thresholds as given in its config,
and `select_population` applies it to the two stage-1 PFS hazard ratios: a
simulated trial's, which its futility snapshot fits (`simdata.snapshot_at`),
or an observed trial's, as given. Every gated arm of a simulated
replication calls it, and most stop there under the global null, so its
decision is a plain named tuple. `calibrate_threshold` derives a threshold
from the large-sample normal model for the log hazard ratio,
log(HR_hat) ~ N(log(true HR), 4 / events) under equal randomization, for
choosing the thresholds beforehand (`gatedgsd thresholds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .numerics import norm_quantile
from .rules import GATE_EVENTS, POSITIVE, PROBABILITY, refuse

__all__ = ["FutilityRule", "Selection", "SelectionDecision", "calibrate_threshold",
           "select_population"]


def calibrate_threshold(true_hr: float, events: int, gamma: float) -> float:
    """Hazard-ratio threshold with P(HR_hat > theta | true_hr) = gamma."""
    refuse((("true_hr", POSITIVE(true_hr)), ("events", GATE_EVENTS(events)),
            ("gamma", PROBABILITY(gamma))))
    return true_hr * math.exp(-norm_quantile(gamma) * 2.0 / math.sqrt(events))


@dataclass(frozen=True)
class FutilityRule:
    """Pre-specified decision thresholds for the end-of-stage-1 gate."""

    theta_full: float
    theta_sub: float

    def __post_init__(self):
        refuse((("theta_full", POSITIVE(self.theta_full)), ("theta_sub", POSITIVE(self.theta_sub))))


class Selection(Enum):
    CONTINUE_BOTH = "continue_both"
    CONTINUE_SUB_ONLY = "continue_sub_only"
    CONTINUE_FULL_ONLY = "continue_full_only"
    STOP_FUTILITY = "stop_futility"


class SelectionDecision(NamedTuple):
    """The gate's selection and the two hazard ratios it compared. A plain
    tuple: every gated arm of a replication builds one."""

    selection: Selection
    hr_full: float
    hr_sub: float


def select_population(hr_full: float, hr_sub: float, rule: FutilityRule) -> SelectionDecision:
    """Population-selection decision from the stage-1 PFS HRs.

    The one comparison of a hazard ratio with a threshold, for simulated and
    observed data alike. The passing condition is strict (< theta); an HR
    exactly at the threshold fails the gate. A fitted HR may be 0 or inf
    (`simdata.cox_hazard_ratio` on a monotone likelihood); NaN is refused.
    """
    if not (hr_full >= 0 and hr_sub >= 0):
        raise ValueError(f"hazard ratios must be nonnegative numbers, got {hr_full}, {hr_sub}")
    full_ok = hr_full < rule.theta_full
    sub_ok = hr_sub < rule.theta_sub
    if full_ok and sub_ok:
        sel = Selection.CONTINUE_BOTH
    elif sub_ok:
        sel = Selection.CONTINUE_SUB_ONLY
    elif full_ok:
        sel = Selection.CONTINUE_FULL_ONLY
    else:
        sel = Selection.STOP_FUTILITY
    return SelectionDecision(sel, hr_full, hr_sub)
