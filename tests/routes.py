"""Second routes to the package's computations, kept beside the tests.

The package ships one route per computation; the routes here certify those
in the tests and in `scripts/boundary_report.py`, and no command runs them:

- `crossing_probability`, a Z-scale conditional recursion with its own
  exact-formula kernel `norm_kernel`, and `crossing_probability_mvn`,
  scipy's multivariate-normal CDF: each recomputes the crossing probability
  of a solved boundary row;
- `finer_grids`, under which the unchanged solver runs on look grids with
  four times the nodes, to check that its rows have converged;
- `logrank_test` and `cox_hazard_ratio`, the snapshot's logrank slot and
  Cox fit on a single sample;
- `inverse_normal`, the combined z that the engine forms from shared
  normal scores;
- `select_population`, the gate's selection from given hazard ratios.
"""

import math
from contextlib import contextmanager

import numpy as np
from scipy.stats import multivariate_normal

from gatedgsd import boundaries
from gatedgsd.boundaries import BoundarySet
from gatedgsd.combine import StageWeights, normal_score
from gatedgsd.futility import SELECTIONS, FutilityRule, SelectionDecision, below_thresholds
from gatedgsd.numerics import _INV_SQRT_2PI, gauss_grid, norm_cdf, norm_pdf
from gatedgsd.simdata import _POOLED_PAIR, _breslow_hr, _logrank_slots, _slot_counts

# `crossing_probability`'s Z-scale grid and the absolute error target of the
# multivariate-normal CDF.
_CROSSING_NODES = 480
_MVN_ABSEPS = 1e-8


def norm_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """The matrix phi((x_i - y_j) / sigma) / sigma, built in one buffer.

    In-place ufuncs perform the same IEEE operations in the same order as
    `norm_pdf((x[:, None] - y[None, :]) / sigma) / sigma`, so the result is
    bit-identical to it without the temporaries. The boundary solver sums
    the same kernel with its own, cheaper arithmetic
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
    library-backed route that certifies the other two."""
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


@contextmanager
def finer_grids():
    """Within the block, every look grid of `boundaries.compute_boundaries`
    gets four times the nodes per sd, with its node floor and cap scaled
    alike; the solver itself is unchanged. The constants are restored on
    exit. Solve with `compute_boundaries` inside the block, not with
    `cached_boundaries`, whose memo would keep the finer rows."""
    names = ("_NODES_PER_SD", "_GRID_FLOOR", "_GRID_CAP")
    saved = [getattr(boundaries, name) for name in names]
    try:
        for name, value in zip(names, saved):
            setattr(boundaries, name, 4 * value)
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(boundaries, name, value)


def _one_slot(duration: np.ndarray, status: np.ndarray, experimental: np.ndarray):
    """`_slot_counts` of one sample as a single slot: F over (subgroup, arm)
    groups with every row in the complement."""
    return _slot_counts(duration, status.astype(bool), experimental.astype(np.intp),
                        _POOLED_PAIR[:1])


def logrank_test(duration: np.ndarray, status: np.ndarray, experimental: np.ndarray):
    """One-sided logrank test; Z > 0 favors the experimental arm.

    Returns (z, one_sided_p, events). A stratum with no events, or with
    one arm only, carries no evidence: (0, 1, events).
    """
    return _logrank_slots(*_one_slot(duration, status, experimental))[0]


def cox_hazard_ratio(duration: np.ndarray, status: np.ndarray,
                     experimental: np.ndarray) -> float:
    """Cox partial-likelihood HR for a single treatment indicator, by
    `_breslow_hr` on the sample's counts at its distinct event times.

    Raises ValueError when there is no event.
    """
    hr = _breslow_hr(_one_slot(duration, status, experimental)[0])
    if hr is None:
        raise ValueError("no events: hazard ratio is not estimable")
    return hr


def inverse_normal(p1: float, p2: float, w: StageWeights) -> float:
    """Combined Z: w1 * Phi^-1(1 - p1) + w2 * Phi^-1(1 - p2)."""
    return w.w1 * normal_score(p1)[0] + w.w2 * normal_score(p2)[0]


def select_population(hr_full: float, hr_sub: float, rule: FutilityRule) -> SelectionDecision:
    """Population-selection decision from the stage-1 PFS HRs, by
    `below_thresholds` and `SELECTIONS`."""
    return SelectionDecision(SELECTIONS[below_thresholds(hr_full, hr_sub, rule)], hr_full, hr_sub)
