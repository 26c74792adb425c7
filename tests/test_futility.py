"""Futility-gate calibration and population selection."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedgsd.futility import FutilityRule, Selection, calibrate_threshold
from routes import select_population

# Frozen values: theta = hr * exp(z_{1-gamma} * 2 / sqrt(events)), gamma = 0.05.
FROZEN = [
    ((0.7, 373), 0.8299911),
    ((0.7, 287), 0.8500249),
    ((0.7, 171), 0.9002302),
]


@pytest.mark.parametrize("args, want", FROZEN)
def test_calibrated_thresholds_frozen(args, want):
    hr, events = args
    assert calibrate_threshold(hr, events, 0.05) == pytest.approx(want, abs=1e-6)


def test_calibration_validation():
    with pytest.raises(ValueError):
        calibrate_threshold(0.0, 100, 0.05)
    with pytest.raises(ValueError):
        calibrate_threshold(0.7, 2, 0.05)
    with pytest.raises(ValueError):
        calibrate_threshold(0.7, 100, 0.0)


@settings(max_examples=100)
@given(
    hr=st.floats(min_value=0.3, max_value=1.0),
    events=st.integers(min_value=10, max_value=2000),
    gamma=st.floats(min_value=0.01, max_value=0.3),
)
def test_threshold_monotonicity(hr, events, gamma):
    theta = calibrate_threshold(hr, events, gamma)
    assert theta > hr  # one-sided upper tail: threshold sits above the target HR
    # more events -> tighter threshold
    assert calibrate_threshold(hr, events + 100, gamma) < theta
    # larger allowed miss probability -> tighter threshold
    assert calibrate_threshold(hr, events, min(gamma + 0.05, 0.5 - 1e-9)) < theta
    # worse assumed HR -> looser threshold
    assert calibrate_threshold(hr + 0.05, events, gamma) > theta


RULE = FutilityRule(theta_full=0.85, theta_sub=0.90)


def test_selection_quadrants():
    assert select_population(0.80, 0.70, RULE).selection is Selection.CONTINUE_BOTH
    assert select_population(0.95, 0.70, RULE).selection is Selection.CONTINUE_SUB_ONLY
    assert select_population(0.80, 0.95, RULE).selection is Selection.CONTINUE_FULL_ONLY
    assert select_population(0.95, 0.95, RULE).selection is Selection.STOP_FUTILITY


def test_selection_threshold_is_strict():
    # an HR exactly at the threshold fails the gate
    assert select_population(0.85, 0.90, RULE).selection is Selection.STOP_FUTILITY
    assert select_population(0.8499999, 0.8999999, RULE).selection is Selection.CONTINUE_BOTH


def test_selection_records_observed_hrs():
    d = select_population(0.8, 0.9, RULE)
    assert d.hr_full == 0.8 and d.hr_sub == 0.9
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            select_population(bad, 0.9, RULE)
    # a monotone likelihood's limits are estimates too
    assert select_population(0.0, math.inf, RULE).selection is Selection.CONTINUE_FULL_ONLY
