"""Value rules: each interval a configured number must lie in, written once.

A rule returns None for a value it accepts, else the reason, worded to follow
the value's field path ("expected a number in (0, 1], got 0"). It refuses None
unless told to skip it: `parse_config` passes None for a value whose type it
has already refused, so it reports every reason in one pass. The constructors
raise the same reasons through `refuse`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple


class Interval:
    """From `lo` to `hi`, each end closed unless marked open; whole numbers
    only, if `integer`."""

    def __init__(self, lo: float, hi: float = math.inf, *, lo_open: bool = False,
                 hi_open: bool = False, integer: bool = False, noun: Optional[str] = None):
        self.lo, self.hi, self.lo_open, self.hi_open, self.integer = (
            lo, hi, lo_open, hi_open, integer)
        span = (f"{'>' if lo_open else '>='} {lo:g}" if hi == math.inf else
                f"in {'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}")
        self.expected = f"expected {noun or ('an integer' if integer else 'a number')} {span}"

    def __call__(self, v, skip_none: bool = False) -> Optional[str]:
        if v is None:
            return None if skip_none else f"{self.expected}, got None"
        if ((self.lo < v if self.lo_open else self.lo <= v)
                and (v < self.hi if self.hi_open else v <= self.hi)
                and not (self.integer and v % 1)):
            return None
        return f"{self.expected}, got {v:g}"


POSITIVE = Interval(0, lo_open=True)  # durations, medians, hazard ratios, thresholds
NONNEGATIVE = Interval(0)  # the stage-1 cutoff, a hypothesis's alpha, a weight
UNIT = Interval(0, 1, lo_open=True)  # prevalence, information fractions, p-values
SQUARE = Interval(0, 1)  # a squared combination weight
DROPOUT = Interval(0, 1, hi_open=True, noun="a rate")  # a rate of 1 loses everyone at once
ALPHA = Interval(0, 0.5, lo_open=True, hi_open=True)  # a total alpha `ldobf_spend` can spend
SAMPLE_SIZE = Interval(2, integer=True)  # a patient for each arm
COUNT = Interval(1, integer=True)  # replications, worker processes, an event trigger
SEED = Interval(0, integer=True)  # what numpy's generators take
PROBABILITY = Interval(0, 1, lo_open=True, hi_open=True)  # a futility gate's miss rate
GATE_EVENTS = Interval(4, integer=True)  # the fewest the gate's variance model takes


def sum_problem(values: Sequence[float], total: float) -> Optional[str]:
    """None if `values` sum to `total` within 1e-9 (alpha splits, squared
    weights), else the reason, to follow what was summed."""
    s = sum(values)
    return None if abs(s - total) <= 1e-9 else f"sum to {s}, expected {total}"


def refuse(problems: Iterable[Tuple[str, Optional[str]]], error: type = ValueError) -> None:
    """Raise `error` naming each (field, reason) of `problems` with a reason."""
    refused = [f"{name}: {reason}" for name, reason in problems if reason]
    if refused:
        raise error("; ".join(refused))
