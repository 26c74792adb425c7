"""Lan-DeMets O'Brien-Fleming alpha spending and group-sequential efficacy
boundaries.

All three designs spend alpha by this one function, `ldobf_spend`. The
fractions a boundary can be solved at obey one rule, `fraction_problem`,
which the solver, `DesignSpec` and `parse_config` apply.
Boundaries are solved look by look by recursive numerical integration
(Jennison & Turnbull 2000, Group Sequential Methods, ch. 19): the
sub-density of the underlying Brownian-motion statistic is propagated on
a quadrature grid restricted to the continuation region, and each
critical value is the root of "incremental crossing probability equals
incremental alpha spend". Each look's grid has 3 nodes per sd of the
narrower of the two increment kernels it meets (`_look_grid`), so closely
spaced looks get finer grids and widely spaced ones coarser. The crossing
probability's slope in the critical value is minus the statistic's
sub-density f_k there, so each root is found by safeguarded Newton in a
handful of evaluations. Every look after the first evaluates its search
directly (`_excess`): at each iterate b it sums the increment's normal tail
(`math.erfc`, mapped over the grid) and the normal density over its grid.
So the solver needs no vectorised erfc, and nothing on the runtime path
imports scipy.

The look-to-look transitions take the sub-density at the next look's grid
from one routine, `_density`. It builds exp(-u^2) with u the scaled node
differences and applies the normal constant to the summed vector, not to
the matrix; `_excess` does the same at its one point.
`crossing_probability` keeps the exact-formula kernel `numerics.norm_kernel`,
so that it stays an independent route. The two kernels round differently in
the last bits, so boundary rows reproduce to 1e-10 in z (`find_root`'s
bracket width), not bit for bit, across changes to the solver's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence, Tuple

import numpy as np

from .numerics import (_INV_SQRT_2PI, _SQRT2, Grid, find_root, gauss_grid, norm_cdf, norm_kernel,
                       norm_pdf, norm_quantile)
from .rules import ALPHA, POSITIVE, UNIT, refuse

__all__ = [
    "MIN_LOOK_GAP",
    "ldobf_spend",
    "BoundarySet",
    "compute_boundaries",
    "crossing_probability",
    "crossing_probability_mvn",
    "cached_boundaries",
]

# Look grids (`_look_grid`). With 3 nodes per sd, quadrupling the nodes moves
# no bundled row, and none of 300 random 2-5-look designs, by more than 2e-10
# in z. The cap bounds a look transition to a 1024 x 1024 kernel and binds for
# looks less than about 5e-4 apart in information. At (0.5, 0.5 + d, 1.0) the
# rows still converge to 2e-10 for d = 1e-4, but quadrupling moves them by
# 7e-7, 6e-5 and 0.016 in z for d = 5e-5, 2e-5 and 1e-5, so looks closer than
# MIN_LOOK_GAP are rejected rather than solved that far off.
MIN_LOOK_GAP = 5e-5
_GRID_SD = 6.5
_NODES_PER_SD = 3.0
_GRID_FLOOR = 32
_GRID_CAP = 1024
_Z_CAP = 12.0  # saturate instead of chasing underflowing spends
# The certifying routes: `crossing_probability`'s Z-scale grid and the
# absolute error target of the multivariate-normal CDF.
_CROSSING_NODES = 480
_MVN_ABSEPS = 1e-8


def ldobf_spend(alpha_total: float, t: float) -> float:
    """Lan-DeMets O'Brien-Fleming cumulative one-sided alpha spend s(t; alpha)."""
    refuse((("alpha_total", ALPHA(alpha_total)), ("t", POSITIVE(t))))
    if t >= 1.0:
        return alpha_total
    return 2.0 * (1.0 - norm_cdf(-norm_quantile(alpha_total / 2.0) / math.sqrt(t)))


@dataclass(frozen=True)
class BoundarySet:
    """Z-scale efficacy boundaries c_k with their nominal p-value forms."""

    fractions: Tuple[float, ...]
    z_bounds: Tuple[float, ...]
    nominal_p: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.fractions)


@lru_cache(maxsize=1024)
def fraction_problem(fractions: Tuple[float, ...]) -> Optional[str]:
    """None if boundaries can be solved at these information fractions (at
    least one, each in (0, 1], increasing by at least MIN_LOOK_GAP), else the
    reason. Memoized: every arm of a config checks the same few."""
    if not fractions:
        return "expected at least one information fraction"
    for t in fractions:
        if UNIT(t):
            return UNIT(t)
    for a, b in zip(fractions, fractions[1:]):
        if b <= a:
            return f"fractions must be strictly increasing, got {list(fractions)}"
        if b - a < MIN_LOOK_GAP:
            return (f"consecutive fractions must be at least {MIN_LOOK_GAP:g} apart for the "
                    f"boundaries to be solved, got {list(fractions)}")
    return None


def _density(x: np.ndarray, y: np.ndarray, wd: np.ndarray, sigma: float) -> np.ndarray:
    """The vector sum_j wd_j phi((x_i - y_j) / sigma) / sigma: the sub-density
    at the points `x` of a look whose previous look's density, times its grid
    weights, is `wd` at the points `y`.

    With c = 1 / (sigma sqrt 2), the matrix is exp(-u^2), u_ij = x_i c - y_j c,
    built in four passes (subtract, square, negate, exp); the constant
    1 / (sigma sqrt(2 pi)) multiplies the product vector, not the matrix.
    """
    c = 1.0 / (sigma * _SQRT2)
    u = np.subtract.outer(x * c, y * c)
    np.square(u, out=u)
    np.negative(u, out=u)
    np.exp(u, out=u)
    return (u @ wd) * (_INV_SQRT_2PI / sigma)


def _excess(points: np.ndarray, wd: np.ndarray, sigma: float, inc: float, b: float):
    """P(S_k >= b) less the spend `inc`, and its slope in b, for a look after
    the first: the increment's normal tail and minus its density, summed over
    the continuation sub-density (`wd`: its values times the weights of the
    grid `points`; `sigma`: the sd of S_k - S_{k-1}).

    With c = 1 / (sigma sqrt 2) and u = b c - points c, the tail is
    sum wd erfc(u) / 2 and the density sum wd exp(-u^2) / (sigma sqrt(2 pi)),
    `_density`'s arithmetic at the one point b, without a 2-D product.
    """
    c = 1.0 / (sigma * _SQRT2)
    u = b * c - points * c
    tail = np.fromiter(map(math.erfc, u.tolist()), float, len(u))
    np.square(u, out=u)
    np.negative(u, out=u)
    np.exp(u, out=u)
    return 0.5 * float(tail @ wd) - inc, -float(u @ wd) * (_INV_SQRT_2PI / sigma)


def _look_grid(fr: Sequence[float], k: int, b: float, refine: int = 1) -> Grid:
    """The Gauss-Legendre grid on [-6.5 sd_k, b] (b: look k's boundary on the
    S scale) that carries look k's continuation sub-density to look k + 1.

    That sub-density is smooth on the scale of the increment S_k - S_{k-1}
    (sd sigma_k, with sigma_1 = sd_1), and the next look integrates it against
    the increment kernel of sd sigma_{k+1}, so the node count follows the
    narrower of the two: n = ceil(3 width / min(sigma_k, sigma_{k+1})), clamped
    to [32, 1024]. `refine` > 1 splits the range into that many equal panels
    of n nodes each, a grid with `refine` times the nodes per sd that reuses
    the n-node rule.
    """
    t_prev = fr[k - 1] if k else 0.0
    sigma = math.sqrt(min(fr[k] - t_prev, fr[k + 1] - fr[k]))
    lo = -_GRID_SD * math.sqrt(fr[k])
    n = min(max(math.ceil(_NODES_PER_SD * (b - lo) / sigma), _GRID_FLOOR), _GRID_CAP)
    if refine == 1:
        return gauss_grid(lo, b, n)
    edges = np.linspace(lo, b, refine + 1)
    panels = [gauss_grid(p, q, n) for p, q in zip(edges[:-1], edges[1:])]
    return Grid(points=np.concatenate([g.points for g in panels]),
                weights=np.concatenate([g.weights for g in panels]))


def compute_boundaries(alpha_total: float, fractions: Sequence[float], *,
                       refine: int = 1) -> BoundarySet:
    """Solve the z-boundaries that realize `ldobf_spend`.

    Works on the S-scale (S_k = sqrt(t_k) Z_k has independent increments).
    Each look's critical value b solves "crossing probability at b equals the
    incremental spend" by safeguarded Newton (`find_root`) on the analytic
    slope of the crossing probability, minus the sub-density of S_k at b. The
    search starts at -sqrt(t_k) Phi^-1(spend), the root the first look has
    exactly. A later look sums its tail and slope over its grid at every
    iterate (`_excess`). The continuation sub-density is then advanced by
    convolution with the increment normal density, on a grid sized by
    `_look_grid`; `refine` multiplies every grid's node count, to check that
    the rows have converged.
    """
    fr = tuple(float(t) for t in fractions)
    refuse((("fractions", fraction_problem(fr)),))
    spent_prev = 0.0
    grid = None
    density = None  # sub-density values on grid.points
    z_bounds = []
    for k, t in enumerate(fr):
        spent = ldobf_spend(alpha_total, t)
        inc = max(spent - spent_prev, 0.0)
        sd_k = math.sqrt(t)
        cap = _Z_CAP * sd_k
        if k == 0:
            def excess(b, _s=sd_k, _inc=inc):
                # P(S_1 >= b) less the spend, and its slope in b.
                return 1.0 - norm_cdf(b / _s) - _inc, -norm_pdf(b / _s) / _s

            at_floor, at_cap = excess(-cap)[0], excess(cap)[0]
        else:
            sigma = math.sqrt(t - fr[k - 1])
            wd = grid.weights * density
            excess = partial(_excess, grid.points, wd, sigma, inc)
            mass = float(np.sum(wd))
            # At -cap the tail is the whole continuation mass, at least
            # 1 - alpha up to about 1e-8, while inc <= alpha < 0.5: the excess
            # is positive there, and mass - inc stands in for it.
            at_floor = mass - inc
            # The grid lies below the last boundary (b_k still holds it), so
            # the tail at the cap is at most mass * Q((cap - b_k) / sigma).
            # Only if that bound leaves the sign open is the tail summed there.
            at_cap = mass * 0.5 * math.erfc((cap - b_k) / (sigma * _SQRT2)) - inc
            if at_cap >= 0.0:
                at_cap = excess(cap)[0]
        if at_cap >= 0.0:
            b_k = cap
        else:
            # inc > 0 on an unsaturated look, so the start point exists
            b_k = find_root(excess, -cap, cap, at_floor, at_cap, -sd_k * norm_quantile(inc),
                            tol=1e-10)
        z_bounds.append(b_k / sd_k)
        if k < len(fr) - 1:
            new_grid = _look_grid(fr, k, b_k, refine)
            if k == 0:
                new_density = norm_pdf(new_grid.points / sd_k) / sd_k
            else:
                new_density = _density(new_grid.points, grid.points, wd, sigma)
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
    library-backed route that certifies the other two, in the tests and in
    `scripts/boundary_report.py`.

    The only code in the package that uses scipy, which is therefore a
    `test` extra, not a dependency: it is imported here, on call.
    """
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
