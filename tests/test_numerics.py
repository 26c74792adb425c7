"""Unit and property tests for the normal-distribution helpers, the root
finder and the Gauss-Legendre rules."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gatedgsd
from gatedgsd.boundaries import compute_boundaries
from gatedgsd.numerics import (BracketError, _leggauss, find_root, gauss_grid, norm_cdf, norm_pdf,
                               norm_quantile)
from routes import norm_kernel

# The solver's look grids take 32-1024 nodes (59-93 for the bundled rows),
# and the certifying route 480.
RULE_SIZES = (1, 2, 3, 32, *range(59, 94), 200, 480, 1024)


def test_norm_cdf_matches_scipy():
    xs = np.linspace(-8.0, 8.0, 401)
    ours = np.array([norm_cdf(x) for x in xs])
    ref = scipy.stats.norm.cdf(xs)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-14)


def test_norm_quantile_matches_scipy():
    ps = np.concatenate([[1e-12, 1e-8, 1e-4], np.linspace(0.01, 0.99, 99), [1 - 1e-8]])
    ours = np.array([norm_quantile(p) for p in ps])
    ref = scipy.stats.norm.ppf(ps)
    np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-9)
    # Near 1 the quantile is -Phi^-1(1 - p); a Halley step against Phi(x) ~ 1
    # was off by 7.4e-9 at 1 - 1e-12, the clamp of `combine.normal_score`.
    near_one = [1 - 1e-12, 1 - 1e-6]
    np.testing.assert_allclose([norm_quantile(p) for p in near_one],
                               scipy.special.ndtri(near_one), rtol=1e-14, atol=0)


@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
def test_quantile_cdf_round_trip(p):
    assert norm_cdf(norm_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_norm_pdf_vectorized():
    xs = np.array([-2.0, 0.0, 1.5])
    np.testing.assert_allclose(norm_pdf(xs), scipy.stats.norm.pdf(xs), atol=1e-15)


def test_gauss_grid_integrates_normal_density():
    g = gauss_grid(-8.0, 8.0, 160)
    assert float(np.sum(g.weights * norm_pdf(g.points))) == pytest.approx(1.0, abs=1e-12)


def _legendre(x, kmax):
    """P_0(x), ..., P_kmax(x) by the three-term recurrence."""
    p = [np.ones_like(x), x]
    for k in range(1, kmax):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[:kmax + 1]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_legendre_rule(n):
    """Increasing, exactly antisymmetric nodes; numpy's rule to rounding;
    and exact on every polynomial of degree up to 2n - 1."""
    x, w = _leggauss(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1]) and np.all(w > 0)
    if n % 2:
        assert x[n // 2] == 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=4.5e-16)
    # numpy's weights near the ends are the less exact ones (its rule fails
    # the moment check below at 5.1e-14), so they are compared loosely.
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-10 * w.max())
    moments = np.array([np.dot(w, p) for p in _legendre(x, 2 * n - 1)])
    moments[0] -= 2.0
    assert np.max(np.abs(moments)) <= 1e-14


def test_rules_need_no_eigensolve(monkeypatch):
    def eigvalsh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    _leggauss.cache_clear()
    bounds = compute_boundaries(0.025, (0.3, 0.6, 1.0))
    assert _leggauss.cache_info().misses >= 2 and len(bounds) == 3


def test_solving_a_row_leaves_numpy_polynomial_unloaded():
    """A fresh interpreter: scipy, which the tests import, loads the module."""
    env = dict(os.environ)
    src = str(Path(gatedgsd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "from gatedgsd.boundaries import compute_boundaries\n"
            "compute_boundaries(0.025, (0.3, 0.6, 1.0))\n"
            "print('numpy.polynomial' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_norm_kernel_bit_identical_to_norm_pdf():
    x = gauss_grid(-6.5, 2.8, 320).points
    y = 0.8 * gauss_grid(-5.5, 3.1, 300).points
    sigma = 0.37
    diff = (x[:, None] - y[None, :]) / sigma
    assert np.array_equal(norm_kernel(x, y, sigma), norm_pdf(diff) / sigma)


def test_find_root_polynomial():
    root = find_root(lambda x: (x**3 - 2.0, 3.0 * x * x), 0.0, 2.0, -2.0, 6.0, 1.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-9)


def test_find_root_requires_bracket():
    with pytest.raises(BracketError):
        find_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0, 2.0, 2.0, 0.5)


@settings(max_examples=50)
@given(st.floats(min_value=-3.0, max_value=3.0))
@example(5e-324)
def test_find_root_recovers_offset(c):
    def f(x):
        v = math.tanh(x - c)
        return v, 1.0 - v * v

    root = find_root(f, c - 5.0, c + 5.0, f(c - 5.0)[0], f(c + 5.0)[0], c - 3.0)
    assert root == pytest.approx(c, abs=1e-8)


@pytest.mark.parametrize("x0, slope", [(5.0, 1.0), (0.5, 0.0)])
def test_find_root_falls_back_to_bisection(x0, slope):
    """A start point outside the bracket, or a zero slope, gives the midpoint."""
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.3, slope

    root = find_root(f, -1.0, 1.0, -1.3, 0.7, x0, tol=1e-10)
    assert root == pytest.approx(0.3, abs=1e-10)
    if slope == 0.0:
        # Pure bisection after the start: the bracket [-1, 0.5] halves until
        # it is no wider than tol.
        assert seen[1] == 0.5 * (-1.0 + 0.5)
        assert len(seen) == 1 + math.ceil(math.log2(1.5 / 1e-10))
    else:
        assert seen[0] == 0.0  # the midpoint of [-1, 1], not x0
        assert len(seen) <= 3
