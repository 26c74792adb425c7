"""Normal distribution helpers, root finding, and quadrature grids.

Self-contained numerical layer for the boundary solver. Everything here is
pure and stateless. The Gauss-Legendre rules are built by Newton's method on
the Legendre three-term recurrence (`_leggauss`), not by Golub and Welsch's
eigenvalue method, which is numpy's; so the runtime path makes no LAPACK
call and does not load numpy's Legendre module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["Grid", "gauss_grid", "norm_cdf", "norm_pdf", "norm_kernel", "norm_quantile",
           "find_root", "BracketError"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ROOT_MAX_ITER = 200  # `find_root`'s step cap


class BracketError(ValueError):
    """Raised when a root bracket does not enclose a sign change."""


class Grid(NamedTuple):
    """Fixed quadrature grid: abscissae and weights. `gauss_grid` makes
    them increasing and positive."""

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def _leggauss(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1]: increasing nodes, weights.

    Newton's method in theta (x = cos theta) on P_n from the three-term
    recurrence, from the asymptotic nodes pi (4i - 1) / (4n + 2), on the half
    of the rule in [0, 1); the other half is its mirror image, and an odd
    rule's middle node is exactly 0. The pass after the one whose steps are
    all below 1e-8 only gives the weights 2 / (sin^2 theta P_n'(x)^2), with
    sin^2 theta P_n'(x) = n (P_{n-1} - x P_n), so 1 - x^2 keeps its digits
    near +-1.
    """
    m = (n + 1) // 2
    theta = math.pi / (4 * n + 2) * np.arange(3, 4 * m, 4)
    done = False
    while True:
        x = np.cos(theta)
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, (2 * k + 1) / (k + 1) * x * p - k / (k + 1) * p_prev
        sin = np.sin(theta)
        dp = n * (p_prev - x * p)  # sin^2 theta P_n'(x)
        if done:
            break
        step = p * sin / dp  # -P_n / (dP_n / dtheta)
        theta += step
        done = np.max(np.abs(step)) < 1e-8
    if n % 2:
        x[-1] = 0.0
    w = 2.0 * np.square(sin / dp)
    nodes, weights = np.empty(n), np.empty(n)
    nodes[:m], nodes[n - m:] = -x, x[::-1]
    weights[:m], weights[n - m:] = w, w[::-1]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_grid(lo: float, hi: float, n: int) -> Grid:
    """Gauss-Legendre grid with `n` nodes on [lo, hi]."""
    if hi <= lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return Grid(points=half * (x + 1.0) + lo, weights=half * w)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def norm_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """The matrix phi((x_i - y_j) / sigma) / sigma, built in one buffer.

    In-place ufuncs perform the same IEEE operations in the same order as
    `norm_pdf((x[:, None] - y[None, :]) / sigma) / sigma`, so the result is
    bit-identical to it without the temporaries. It is the kernel of the
    certifying route `boundaries.crossing_probability`; the boundary solver
    sums the same kernel with its own, cheaper arithmetic
    (`boundaries._density`), so the two routes do not share their rounding.
    """
    k = np.subtract.outer(x, y)
    k /= sigma
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k *= _INV_SQRT_2PI
    k /= sigma
    return k


# Coefficients of Acklam's rational approximation to the normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Acklam's rational approximation polished with one Halley step against
    erfc, which brings the result to near machine precision. Above 1/2 it
    returns -Phi^-1(1 - p): 1 - p is exact there, while a Halley step
    against Phi(x) near 1 would lose the digits that 1 - Phi(x) holds.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    if p > 0.5:
        return -norm_quantile(1.0 - p)
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    # Halley refinement: e = CDF(x) - p, u = e / pdf(x).
    e = 0.5 * math.erfc(-x / _SQRT2) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def find_root(f, lo: float, hi: float, flo: float, fhi: float, x0: float,
              tol: float = 1e-10) -> float:
    """Root of a continuous function on a sign-changing bracket.

    Safeguarded Newton: `f(x)` returns the value and the slope at x, and
    `flo`, `fhi` are f(lo), f(hi), or values of the same signs, which the
    caller holds. The iteration starts at `x0` and keeps the sign bracket; a
    Newton step that would leave the bracket, or a zero slope, falls back to
    the midpoint. Once a step is shorter than tol / 2, the next point lies
    tol / 2 past the Newton point, so the bracket closes from both sides.
    Returns the midpoint of a bracket no wider than `tol`. Deterministic, and
    converges for any continuous f with f(lo) * f(hi) <= 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # Compare signs, not a product: the product of two tiny values
    # underflows to 0 and would hide the sign.
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    x = x0 if lo < x0 < hi else 0.5 * (lo + hi)
    for _ in range(_ROOT_MAX_ITER):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (flo > 0) != (fx > 0):
            hi = x
        else:
            lo, flo = x, fx
        if hi - lo <= tol:
            break
        step = fx / slope if slope != 0.0 else math.inf
        if abs(step) < 0.5 * tol:
            step += math.copysign(0.5 * tol, step)
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)
