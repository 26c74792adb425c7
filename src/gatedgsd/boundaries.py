"""Lan-DeMets O'Brien-Fleming alpha spending and group-sequential efficacy
boundaries.

All three designs spend alpha by this one function, `ldobf_spend`.
Boundaries are solved look by look by recursive numerical integration
(Jennison & Turnbull 2000, Group Sequential Methods, ch. 19): the
sub-density of the underlying Brownian-motion statistic is propagated on
a quadrature grid restricted to the continuation region, and each
critical value is the root of "incremental crossing probability equals
incremental alpha spend". The crossing probability's slope in the
critical value is minus the statistic's sub-density there, so each root
is found by safeguarded Newton in a handful of evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erfc

from .numerics import find_root, gauss_grid, norm_cdf, norm_kernel, norm_pdf, norm_quantile

__all__ = [
    "ldobf_spend",
    "BoundarySet",
    "SpendingError",
    "compute_boundaries",
    "crossing_probability",
    "crossing_probability_mvn",
    "cached_boundaries",
]

# Grid resolution: >= 6.5 sd of the running statistic, enough nodes that
# doubling them moves critical values by well under 1e-4.
_GRID_NODES = 320
_GRID_SD = 6.5
_Z_CAP = 12.0  # saturate instead of chasing underflowing spends
# The certifying routes: `crossing_probability`'s Z-scale grid and the
# absolute error target of the multivariate-normal CDF.
_CROSSING_NODES = 480
_MVN_ABSEPS = 1e-8


class SpendingError(ValueError):
    """Raised for infeasible (non-increasing) cumulative spend."""


def ldobf_spend(alpha_total: float, t: float) -> float:
    """Lan-DeMets O'Brien-Fleming cumulative one-sided alpha spend s(t; alpha)."""
    if not 0.0 < alpha_total < 0.5:
        raise ValueError(f"alpha_total must be in (0, 0.5), got {alpha_total}")
    if t <= 0.0:
        raise ValueError(f"information fraction must be positive, got {t}")
    if t >= 1.0:
        return alpha_total
    return 2.0 * (1.0 - norm_cdf(norm_quantile(1.0 - alpha_total / 2.0) / math.sqrt(t)))


@dataclass(frozen=True)
class BoundarySet:
    """Z-scale efficacy boundaries c_k with their nominal p-value forms."""

    fractions: Tuple[float, ...]
    z_bounds: Tuple[float, ...]
    nominal_p: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.fractions)


def _validate_fractions(fractions: Sequence[float]) -> Tuple[float, ...]:
    fr = tuple(float(t) for t in fractions)
    if not fr:
        raise ValueError("at least one information fraction is required")
    if any(t <= 0.0 or t > 1.0 for t in fr):
        raise ValueError(f"fractions must lie in (0, 1]: {fr}")
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise ValueError(f"fractions must be strictly increasing: {fr}")
    return fr


def compute_boundaries(alpha_total: float, fractions: Sequence[float]) -> BoundarySet:
    """Solve the z-boundaries that realize `ldobf_spend`.

    Works on the S-scale (S_k = sqrt(t_k) Z_k has independent increments).
    Each look's critical value b solves "crossing probability at b equals the
    incremental spend" by safeguarded Newton (`find_root`) on the analytic
    slope of the crossing probability, minus the sub-density of S_k at b. The
    search starts at -sqrt(t_k) Phi^-1(spend), the root the first look has
    exactly. The continuation sub-density is then advanced by convolution
    with the increment normal density.
    """
    fr = _validate_fractions(fractions)
    spent_prev = 0.0
    grid = None
    density = None  # sub-density values on grid.points
    z_bounds = []
    for k, t in enumerate(fr):
        spent = ldobf_spend(alpha_total, t)
        inc = spent - spent_prev
        if inc < -1e-15:
            raise SpendingError(
                f"cumulative spend decreases at look {k + 1}: {spent} < {spent_prev}"
            )
        inc = max(inc, 0.0)
        sd_k = math.sqrt(t)
        if k == 0:
            def excess(b, _s=sd_k, _inc=inc):
                # P(S_1 >= b) less the spend, and its slope in b.
                return 1.0 - norm_cdf(b / _s) - _inc, -norm_pdf(b / _s) / _s
        else:
            sigma = math.sqrt(t - fr[k - 1])
            wd = grid.weights * density

            def excess(b, _p=grid.points, _wd=wd, _s=sigma, _inc=inc):
                # P(S_k >= b | S_{k-1} = p), integrated over the sub-density,
                # less the spend; and its slope in b.
                tail = 0.5 * erfc((b - _p) / (_s * math.sqrt(2.0)))
                slope = -float(np.sum(_wd * norm_pdf((b - _p) / _s))) / _s
                return float(np.sum(_wd * tail)) - _inc, slope

        cap = _Z_CAP * sd_k
        at_cap = excess(cap)
        if at_cap[0] >= 0.0:
            b_k = cap
        else:
            # the search's upper bracket end is the cap: reuse its value
            b_k = find_root(lambda b: at_cap if b == cap else excess(b), -cap, cap,
                            -sd_k * norm_quantile(inc), tol=1e-10)
        z_bounds.append(b_k / sd_k)
        if k < len(fr) - 1:
            new_grid = gauss_grid(-_GRID_SD * sd_k, b_k, _GRID_NODES)
            if k == 0:
                new_density = norm_pdf(new_grid.points / sd_k) / sd_k
            else:
                new_density = norm_kernel(new_grid.points, grid.points, sigma) @ wd
            grid, density = new_grid, new_density
        spent_prev = spent
    nominal = tuple(1.0 - norm_cdf(c) for c in z_bounds)
    return BoundarySet(fractions=fr, z_bounds=tuple(z_bounds), nominal_p=nominal)


def crossing_probability(bounds: BoundarySet) -> float:
    """P(Z_k >= c_k for some k) under H0.

    Forward pass written independently of compute_boundaries: it works on the
    Z scale with the Markov conditional Z_{k+1} | Z_k = r z + s N(0,1),
    r = sqrt(t_k / t_{k+1}), s = sqrt(1 - r^2), marching the continuation
    density over a Gauss grid below each boundary. The boundary solver and
    this integrator can therefore certify each other via round-trips.
    """
    fr = bounds.fractions
    cb = [min(c, 38.0) for c in bounds.z_bounds]
    if len(bounds) == 1:
        return 1.0 - norm_cdf(cb[0])
    lo = -9.0
    grid = gauss_grid(lo, cb[0], _CROSSING_NODES)
    density = norm_pdf(grid.points)
    for k in range(1, len(bounds)):
        r = math.sqrt(fr[k - 1] / fr[k])
        s = math.sqrt(1.0 - r * r)
        new_grid = gauss_grid(lo, cb[k], _CROSSING_NODES)
        kernel = norm_kernel(new_grid.points, r * grid.points, s)
        density = kernel @ (grid.weights * density)
        grid = new_grid
    return float(1.0 - np.sum(grid.weights * density))


def crossing_probability_mvn(bounds: BoundarySet) -> float:
    """Same quantity via the multivariate-normal CDF over the canonical
    correlation Cov(Z_i, Z_j) = sqrt(t_i / t_j). Slow but a third,
    library-backed route used to certify the other two in tests.
    """
    # scipy.stats is imported here, not at module load: it costs more than
    # the rest of `import gatedgsd` and nothing else needs it.
    from scipy.stats import multivariate_normal

    k = len(bounds)
    if k == 1:
        return 1.0 - norm_cdf(bounds.z_bounds[0])
    fr = np.asarray(bounds.fractions)
    cov = np.sqrt(np.minimum.outer(fr, fr) / np.maximum.outer(fr, fr))
    upper = np.minimum(np.asarray(bounds.z_bounds), 38.0)
    p_none = multivariate_normal.cdf(
        upper, mean=np.zeros(k), cov=cov, allow_singular=True,
        maxpts=2_000_000 * k, abseps=_MVN_ABSEPS, releps=0.0)
    return float(1.0 - p_none)


@lru_cache(maxsize=8192)
def cached_boundaries(alpha_total: float, fractions: Tuple[float, ...]) -> BoundarySet:
    """Memoized `compute_boundaries`.

    The decision engine reaches it once per row of a compiled plan, the first
    time that row is used: each (arm, scenario) plan has at most two alpha
    levels per hypothesis. The memo shares rows between arms and scenarios
    whose alphas agree, so each distinct row is solved once per process.
    """
    return compute_boundaries(alpha_total, fractions)
