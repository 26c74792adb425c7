"""Inverse-normal combination and stage weights."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedgsd.combine import StageWeights, clamp_p, event_weights
from routes import inverse_normal


HALF = StageWeights(math.sqrt(0.5), math.sqrt(0.5))


def test_stage_weights_validation():
    StageWeights(math.sqrt(0.7), math.sqrt(0.3))
    with pytest.raises(ValueError):
        StageWeights(0.9, 0.9)
    with pytest.raises(ValueError):
        StageWeights(-0.6, 0.8)
    with pytest.raises(ValueError, match=r"expected a number >= 0, got None"):
        StageWeights(None, 1.0)  # a TypeError from None ** 2 before the rules refused None
    w = StageWeights.from_squares(0.7, 0.3)
    assert w.w1 == pytest.approx(math.sqrt(0.7))
    assert w.w2 == pytest.approx(math.sqrt(0.3))
    with pytest.raises(ValueError):
        StageWeights.from_squares(0.7, 0.4)


def test_event_weights():
    w = event_weights(100, 300)
    assert w.w1 == pytest.approx(0.5)
    assert w.w2 == pytest.approx(math.sqrt(0.75))
    # a look with no event in either stage puts all the weight on stage 1
    assert event_weights(0, 0) == StageWeights(1.0, 0.0)
    assert event_weights(7, 0) == StageWeights(1.0, 0.0)
    for n1, n2 in ((-1, 5), (5, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            event_weights(n1, n2)


def test_inverse_normal_known_value():
    # equal weights, p1 = p2 = 0.025 -> Z = sqrt(2) * 1.959964
    z = inverse_normal(0.025, 0.025, HALF)
    assert z == pytest.approx(math.sqrt(2.0) * 1.9599640, abs=1e-6)


def test_inverse_normal_clamps_degenerate_p():
    assert math.isfinite(inverse_normal(0.0, 0.5, HALF))
    assert math.isfinite(inverse_normal(0.5, 1.0, HALF))
    assert clamp_p(0.0)[1] and clamp_p(1.0)[1]
    assert clamp_p(0.5) == (0.5, False)


@settings(max_examples=100)
@given(
    p1=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    p2=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    v1=st.floats(min_value=0.05, max_value=0.95),
)
def test_inverse_normal_monotone_in_evidence(p1, p2, v1):
    w = StageWeights.from_squares(v1, 1.0 - v1)
    z = inverse_normal(p1, p2, w)
    assert inverse_normal(p1 * 0.5, p2, w) >= z
    assert inverse_normal(p1, p2 * 0.5, w) >= z


def test_combined_z_standard_normal_under_null():
    """KS distance < 0.01 at 1e5 draws (uniform p-values under H0)."""
    rng = np.random.default_rng(20260826)
    n = 100_000
    p1 = rng.uniform(size=n)
    p2 = rng.uniform(size=n)
    w = StageWeights.from_squares(0.7, 0.3)
    z = (w.w1 * scipy.stats.norm.ppf(1.0 - p1) + w.w2 * scipy.stats.norm.ppf(1.0 - p2))
    spot = rng.integers(0, n, size=200)
    for i in spot:  # library route must equal the implementation route
        assert inverse_normal(p1[i], p2[i], w) == pytest.approx(z[i], abs=1e-9)
    ks = scipy.stats.kstest(z, "norm").statistic
    assert ks < 0.01
