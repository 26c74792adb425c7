"""End-of-stage-1 futility gate and population selection.

A design's rule holds the hazard-ratio thresholds as given in its config.
The gate asks whether each population's stage-1 PFS hazard ratio is below
its threshold, and `SELECTIONS` maps the two answers to the populations
that continue. A simulated trial's futility snapshot answers by the sign of
the Cox score at log theta, without a fit (`simdata.FutilitySnapshot`);
given ratios are compared by `below_thresholds`, which `select_population`
also uses. `calibrate_threshold` derives a threshold from the large-sample
normal model for the log hazard ratio, log(HR_hat) ~ N(log(true HR),
4 / events) under equal randomization, for choosing the thresholds
beforehand (`gatedgsd thresholds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Tuple

from .numerics import norm_quantile
from .rules import GATE_EVENTS, POSITIVE, PROBABILITY, refuse

__all__ = ["FutilityRule", "Selection", "SelectionDecision", "SELECTIONS", "below_thresholds",
           "calibrate_threshold", "select_population"]


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
    """The gate's selection and the two hazard ratios it compared, as a
    trace or a replay reports them."""

    selection: Selection
    hr_full: float
    hr_sub: float


# The one mapping from the gate's two answers, (HR(F) below theta_full, HR(S)
# below theta_sub), to the selection.
SELECTIONS = {(True, True): Selection.CONTINUE_BOTH, (False, True): Selection.CONTINUE_SUB_ONLY,
              (True, False): Selection.CONTINUE_FULL_ONLY,
              (False, False): Selection.STOP_FUTILITY}


def below_thresholds(hr_full: float, hr_sub: float, rule: FutilityRule) -> Tuple[bool, bool]:
    """The gate's two answers on given hazard ratios: each population passes
    when its HR is strictly below its threshold, so an HR exactly at the
    threshold fails. A fitted HR may be 0 or inf (a monotone likelihood);
    NaN is refused."""
    if not (hr_full >= 0 and hr_sub >= 0):
        raise ValueError(f"hazard ratios must be nonnegative numbers, got {hr_full}, {hr_sub}")
    return hr_full < rule.theta_full, hr_sub < rule.theta_sub


def select_population(hr_full: float, hr_sub: float, rule: FutilityRule) -> SelectionDecision:
    """Population-selection decision from the stage-1 PFS HRs, by
    `below_thresholds` and `SELECTIONS`."""
    return SelectionDecision(SELECTIONS[below_thresholds(hr_full, hr_sub, rule)], hr_full, hr_sub)
