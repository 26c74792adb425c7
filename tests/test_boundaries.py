"""Boundary-engine tests.

The critical values are certified through three independent routes: the
sub-density solver under test, a separately coded conditional-recursion
integrator (`routes.crossing_probability`), and scipy's multivariate-normal
CDF (`routes.crossing_probability_mvn`). Frozen reference values below were
produced by a fine-grid trapezoid oracle coded from scratch before this
module.
"""

import ast
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gatedgsd
from gatedgsd import boundaries, engine
from gatedgsd.boundaries import (
    BoundarySet,
    cached_boundaries,
    compute_boundaries,
    ldobf_spend,
)
from gatedgsd.config import build_designs, parse_config
from gatedgsd.numerics import BracketError, norm_cdf, norm_pdf
from routes import crossing_probability, crossing_probability_mvn, finer_grids, norm_kernel

CONFIG_DIR = Path(gatedgsd.__file__).resolve().parent / "configs"

LDOBF = ldobf_spend

# Frozen oracle values (fine-grid recursion, independent implementation).
SINGLE_LOOK = 1.9599640
TWO_EQUAL_LOOKS = (2.9625881, 1.9685956)
THREE_LOOKS_69_92 = (2.4588679, 2.1118180, 2.0750831)
TWO_LOOKS_90 = (2.0936632, 2.0529798)


def test_spending_endpoints():
    assert LDOBF(0.025, 1.0) == pytest.approx(0.025, abs=1e-15)
    # s(t) = 2 * (1 - Phi(z_{alpha/2} / sqrt(t)))
    assert LDOBF(0.025, 0.5) == pytest.approx(0.001525323, abs=1e-8)
    assert LDOBF(0.025, 0.25) == pytest.approx(7.367e-06, abs=1e-8)
    assert LDOBF(0.025, 0.9) == pytest.approx(0.018144996, abs=1e-8)


def test_spending_monotone():
    # below t ~ 0.1 the LD-OBF spend underflows toward 0, so require strict
    # growth only where it is numerically resolvable
    ts = np.linspace(0.2, 1.0, 60)
    vals = [LDOBF(0.025, t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_single_look_is_fixed_sample_critical_value():
    b = compute_boundaries(0.025, (1.0,))
    assert b.z_bounds[0] == pytest.approx(SINGLE_LOOK, abs=1e-4)


def test_two_equal_looks_against_oracle():
    b = compute_boundaries(0.025, (0.5, 1.0))
    for got, want in zip(b.z_bounds, TWO_EQUAL_LOOKS):
        assert got == pytest.approx(want, abs=2e-3)


def test_three_look_design_frozen():
    b = compute_boundaries(0.025, (0.69, 0.92, 1.0))
    for got, want in zip(b.z_bounds, THREE_LOOKS_69_92):
        assert got == pytest.approx(want, abs=2e-4)
    # nominal one-sided p-values of the boundaries
    noms = [1.0 - norm_cdf(z) for z in b.z_bounds]
    for got, want in zip(noms, (0.0069688, 0.0173510, 0.0189894)):
        assert got == pytest.approx(want, abs=2e-5)


def test_two_look_90_percent_frozen():
    b = compute_boundaries(0.025, (0.90, 1.0))
    for got, want in zip(b.z_bounds, TWO_LOOKS_90):
        assert got == pytest.approx(want, abs=2e-4)


def test_round_trip_randomized_designs_under_one_second():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(50):
        k = int(rng.integers(1, 6))
        fr = np.sort(rng.uniform(0.15, 0.999, size=k))
        fr = tuple(np.append(fr[:-1], 1.0))
        if any(b - a < 0.02 for a, b in zip(fr, fr[1:])):
            continue
        alpha = float(rng.uniform(0.005, 0.05))
        b = compute_boundaries(alpha, fr)
        assert crossing_probability(b) == pytest.approx(alpha, abs=1e-5)
    assert time.perf_counter() - start < 1.0


def bisection_secant(f, lo, hi, tol=1e-10, max_iter=200):
    """The root search that safeguarded Newton replaced: bisection with
    secant steps, kept interior to the bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        if flo != fhi:
            x = lo - flo * (hi - lo) / (fhi - flo)
            # Keep secant iterates strictly interior to guarantee progress.
            margin = 0.01 * (hi - lo)
            if not (lo + margin < x < hi - margin):
                x = 0.5 * (lo + hi)
        else:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x
        if (flo > 0) != (fx > 0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    return 0.5 * (lo + hi)


def plan_rows(monkeypatch, names):
    """Every (alpha, fractions) boundary row the compiled plans of the named
    bundled configs reach, keyed as the engine asks `cached_boundaries`."""
    rows = set()

    def record(alpha, fractions):
        rows.add((alpha, fractions))
        return cached_boundaries(alpha, fractions)

    with monkeypatch.context() as m:
        m.setattr(engine, "cached_boundaries", record)
        for name in names:
            for design in build_designs(parse_config(CONFIG_DIR / f"{name}.yaml")):
                for plan in design._plans.values():
                    for i, levels in enumerate(plan.levels):
                        for level, alpha in enumerate(levels):
                            if alpha > 0.0:
                                plan.row(i, level)
    return sorted(rows)


def test_bundled_rows_match_bisection_secant(monkeypatch):
    rows = plan_rows(monkeypatch, [p.stem for p in sorted(CONFIG_DIR.glob("*.yaml"))])
    assert len(rows) == 30
    newton = [compute_boundaries(*row).z_bounds for row in rows]
    # The value of each look's search function is unchanged; only the solver
    # differs, so the old one runs on the value half of the same function.
    monkeypatch.setattr(boundaries, "find_root", lambda f, lo, hi, flo, fhi, x0, tol:
                        bisection_secant(lambda b: f(b)[0], lo, hi, tol=tol))
    for row, new in zip(rows, newton):
        old = compute_boundaries(*row).z_bounds
        assert max(abs(a - b) for a, b in zip(old, new)) <= 1e-9, row


def test_newton_evaluations_per_look(monkeypatch):
    """Each look's search evaluates the crossing probability at most 14 times
    on setting2's rows; the caller hands in the two bracket ends' values."""
    counts = []
    solve = boundaries.find_root

    def counting(f, *args, **kwargs):
        calls = [0]

        def counted(b):
            calls[0] += 1
            return f(b)

        root = solve(counted, *args, **kwargs)
        counts.append(calls[0])
        return root

    rows = plan_rows(monkeypatch, ["setting2"])
    monkeypatch.setattr(boundaries, "find_root", counting)
    for row in rows:
        compute_boundaries(*row)
    assert counts and max(counts) <= 14


def test_density_matches_exact_kernel(monkeypatch):
    """The solver's `_density` rounds differently from `routes.norm_kernel`
    (the constant goes on the summed vector, 1/sigma inside the square), but
    at every look transition of the bundled plan rows it agrees with
    `norm_kernel(x, y, sigma) @ wd` to 1e-13 relative; the largest difference
    measured is about 4e-15."""
    rows = plan_rows(monkeypatch, [p.stem for p in sorted(CONFIG_DIR.glob("*.yaml"))])
    density, look_grid = boundaries._density, boundaries._look_grid
    sizes, grid_sizes = [], []

    def checked(x, y, wd, sigma):
        got = density(x, y, wd, sigma)
        np.testing.assert_allclose(got, norm_kernel(x, y, sigma) @ wd, rtol=1e-13, atol=0.0)
        sizes.append(len(x))
        return got

    def sized(fr, k, b):
        grid = look_grid(fr, k, b)
        if k > 0:  # the first look's density is the normal pdf, not a `_density` sum
            grid_sizes.append(len(grid.points))
        return grid

    monkeypatch.setattr(boundaries, "_density", checked)
    monkeypatch.setattr(boundaries, "_look_grid", sized)
    for row in rows:
        compute_boundaries(*row)
    # every next-look grid `_look_grid` sized after the first look was checked
    assert grid_sizes
    assert all(sizes.count(n) >= grid_sizes.count(n) for n in grid_sizes)


# Closely spaced looks, where the next look's increment kernel is narrow: 0.01
# apart, 1e-4 apart (the node cap binds), and a random five-look design with
# two looks 6e-4 apart.
CLOSE_LOOKS = ((0.025, (0.5, 0.51, 1.0)), (0.025, (0.5, 0.5001, 1.0)),
               (0.0043, (0.0342, 0.2512, 0.5158, 0.5164, 1.0)))


def test_rows_converged_in_the_grid(monkeypatch):
    """Quadrupling every look grid's nodes (`routes.finer_grids`) moves no
    critical value of the bundled plan rows or of the close-look designs by
    more than 2e-10 in z, about the root search's tolerance. The fixed
    320-node grid the solver used before fails this: quadrupling it moves
    (0.5, 0.5001, 1.0) by 0.024 and the five-look design by 1.7e-6."""
    rows = plan_rows(monkeypatch, [p.stem for p in sorted(CONFIG_DIR.glob("*.yaml"))])
    for alpha, fractions in rows + list(CLOSE_LOOKS):
        got = compute_boundaries(alpha, fractions).z_bounds
        with finer_grids():
            fine = compute_boundaries(alpha, fractions).z_bounds
        assert max(abs(a - b) for a, b in zip(got, fine)) <= 2e-10, (alpha, fractions)


def test_finer_grids_quadruples_the_look_grids_and_restores_them():
    """Off the node floor and cap, a look grid under `finer_grids` has four
    times the nodes, up to the rounding up of each count; on leaving the
    block, by an exception too, the solver's constants are as before."""
    fr, b = (0.5, 0.6, 1.0), 2.09
    constants = boundaries._NODES_PER_SD, boundaries._GRID_FLOOR, boundaries._GRID_CAP
    coarse = len(boundaries._look_grid(fr, 0, b).points)
    with finer_grids():
        fine = len(boundaries._look_grid(fr, 0, b).points)
    assert boundaries._GRID_FLOOR < coarse < boundaries._GRID_CAP
    assert 4 * coarse - 3 <= fine <= 4 * coarse
    with pytest.raises(RuntimeError), finer_grids():
        raise RuntimeError
    assert len(boundaries._look_grid(fr, 0, b).points) == coarse
    assert (boundaries._NODES_PER_SD, boundaries._GRID_FLOOR, boundaries._GRID_CAP) == constants


# The fraction sets the three crossing-probability routes are compared on.
ROUTE_FRACTIONS = ((0.5, 1.0), (0.69, 0.92, 1.0), (0.25, 0.5, 0.75, 1.0))
# Looks whose spend underflows: z is pinned at the cap. Values from the
# direct-sum solver.
SATURATED = (((0.01, 0.02, 1.0), (12.0, 12.0, 1.9599640)),
             ((0.05, 0.1, 1.0), (12.0, 6.9913410, 1.9599640)))


def test_saturated_looks_pin_the_cap():
    for fractions, want in SATURATED:
        got = compute_boundaries(0.025, fractions).z_bounds
        assert got == pytest.approx(want, abs=1e-7), fractions


def test_crossing_probability_evaluated_once_per_point(monkeypatch):
    """No look after the first evaluates its search function twice at one
    point, nor at a bracket end inside the search, whose value is known; a
    saturated look sums its tail once, at the cap."""
    looks = {}
    excess = boundaries._excess

    def recording(points, wd, sigma, inc, b):
        # within one solve, each look after the first has its own grid
        looks.setdefault(points.tobytes(), []).append(b)
        return excess(points, wd, sigma, inc, b)

    rows = plan_rows(monkeypatch, [p.stem for p in sorted(CONFIG_DIR.glob("*.yaml"))])
    rows += [(0.025, fractions) for fractions, _ in SATURATED]
    monkeypatch.setattr(boundaries, "_excess", recording)
    saturated = 0
    for alpha, fractions in rows:
        looks.clear()
        z = compute_boundaries(alpha, fractions).z_bounds
        assert len(looks) == len(fractions) - 1, (alpha, fractions)
        for points, t, z_k in zip(looks.values(), fractions[1:], z[1:]):
            cap = boundaries._Z_CAP * math.sqrt(t)
            assert len(set(points)) == len(points), (alpha, fractions)
            assert all(-cap < b < cap for b in points if b != cap), (alpha, fractions)
            if z_k == pytest.approx(boundaries._Z_CAP, abs=1e-12):
                saturated += 1
                assert points == [cap], (alpha, fractions)
    assert saturated


@pytest.mark.parametrize("fractions", [(0.5, 1.0), (0.69, 0.92), (0.25, 0.3)])
def test_search_values_match_exact_tail_across_bracket(fractions):
    """A second look's search function, with no spend subtracted, gives the
    exact tail (scipy's erfc summed over the grid) and minus the sub-density
    (the exact kernel `norm_kernel` summed) at points spread over the whole
    bracket [-cap, cap]."""
    from scipy.special import erfc

    t1, t2 = fractions
    sd1, sigma = math.sqrt(t1), math.sqrt(t2 - t1)
    b1 = compute_boundaries(0.025, fractions).z_bounds[0] * sd1
    grid = boundaries._look_grid(fractions, 0, b1)
    wd = grid.weights * norm_pdf(grid.points / sd1) / sd1
    cap = boundaries._Z_CAP * math.sqrt(t2)
    for b in np.linspace(-cap, cap, 97):
        value, slope = boundaries._excess(grid.points, wd, sigma, 0.0, b)
        tail = 0.5 * float(np.sum(wd * erfc((b - grid.points) / (sigma * math.sqrt(2.0)))))
        assert value == pytest.approx(tail, abs=1e-14)
        density = float(norm_kernel(np.array([b]), grid.points, sigma)[0] @ wd)
        assert slope == pytest.approx(-density, rel=1e-12, abs=1e-300)


def direct_sum_boundaries(alpha_total, fractions):
    """A reference solver with its own arithmetic after the first look: each
    search value sums the increment's normal tail over the grid with scipy's
    vectorised erfc, and every density comes from `norm_kernel`. It solves
    each look to a 1e-14 bracket, not the solver's 1e-10: two answers that
    each sit anywhere in a 1e-10 bracket can differ by more than the 1e-10
    the comparison allows."""
    from scipy.special import erfc

    from gatedgsd.numerics import find_root, norm_quantile

    fr = tuple(fractions)
    spent_prev, grid, density, z_bounds = 0.0, None, None, []
    for k, t in enumerate(fr):
        spent = ldobf_spend(alpha_total, t)
        inc = max(spent - spent_prev, 0.0)
        sd_k = math.sqrt(t)
        if k == 0:
            def excess(b, _s=sd_k, _inc=inc):
                return 1.0 - norm_cdf(b / _s) - _inc, -norm_pdf(b / _s) / _s
        else:
            sigma = math.sqrt(t - fr[k - 1])
            wd = grid.weights * density

            def excess(b, _p=grid.points, _wd=wd, _s=sigma, _inc=inc):
                tail = 0.5 * erfc((b - _p) / (_s * math.sqrt(2.0)))
                slope = -float(np.sum(_wd * norm_pdf((b - _p) / _s))) / _s
                return float(np.sum(_wd * tail)) - _inc, slope

        cap = boundaries._Z_CAP * sd_k
        at_floor, at_cap = excess(-cap)[0], excess(cap)[0]
        if at_cap >= 0.0:
            b_k = cap
        else:
            b_k = find_root(excess, -cap, cap, at_floor, at_cap, -sd_k * norm_quantile(inc),
                            tol=1e-14)
        z_bounds.append(b_k / sd_k)
        if k < len(fr) - 1:
            new_grid = boundaries._look_grid(fr, k, b_k)
            if k == 0:
                density = norm_pdf(new_grid.points / sd_k) / sd_k
            else:
                density = norm_kernel(new_grid.points, grid.points, sigma) @ wd
            grid = new_grid
        spent_prev = spent
    return z_bounds


def assert_matches_direct_sum(alpha, fractions):
    got = compute_boundaries(alpha, fractions).z_bounds
    want = direct_sum_boundaries(alpha, fractions)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-10, (alpha, fractions)


def test_bundled_rows_match_direct_sum(monkeypatch):
    rows = plan_rows(monkeypatch, [p.stem for p in sorted(CONFIG_DIR.glob("*.yaml"))])
    rows += [(0.025, fractions) for fractions in ROUTE_FRACTIONS]
    for row in rows:
        assert_matches_direct_sum(*row)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(min_value=0.005, max_value=0.05),
    t1=st.floats(min_value=0.2, max_value=0.7),
    t2=st.floats(min_value=0.75, max_value=0.98),
)
@example(alpha=0.0375083023287464, t1=0.3359375, t2=0.8641838605201689)
def test_random_designs_match_direct_sum(alpha, t1, t2):
    assert_matches_direct_sum(alpha, (t1, t2, 1.0))


def test_crossing_probability_routes_agree():
    for fr in ROUTE_FRACTIONS:
        b = compute_boundaries(0.025, fr)
        fast = crossing_probability(b)
        mvn = crossing_probability_mvn(b)
        assert fast == pytest.approx(mvn, abs=5e-7)
        assert mvn == pytest.approx(0.025, abs=5e-7)


def test_first_look_boundary_decreases_with_later_first_look():
    zs = [compute_boundaries(0.025, (t, 1.0)).z_bounds[0]
          for t in (0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(zs, zs[1:]))


def test_boundaries_decrease_with_larger_alpha():
    lo = compute_boundaries(0.01, (0.5, 1.0))
    hi = compute_boundaries(0.025, (0.5, 1.0))
    assert all(h < l for l, h in zip(lo.z_bounds, hi.z_bounds))


def test_invalid_fractions_rejected():
    with pytest.raises(ValueError):
        compute_boundaries(0.025, (0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        compute_boundaries(0.025, (0.0, 1.0))
    with pytest.raises(ValueError):
        compute_boundaries(0.025, (0.5, 1.2))
    with pytest.raises(ValueError):
        compute_boundaries(0.6, (1.0,))
    # looks too close to solve on the capped grid
    for fractions in ((0.5, 0.50001, 1.0), (0.5, 0.50002, 1.0)):
        with pytest.raises(ValueError, match="apart"):
            compute_boundaries(0.025, fractions)


def test_cached_boundaries_identical_and_shared():
    a = cached_boundaries(0.025, (0.69, 0.92, 1.0))
    b = cached_boundaries(0.025, (0.69, 0.92, 1.0))
    assert a is b
    assert a.z_bounds == compute_boundaries(0.025, (0.69, 0.92, 1.0)).z_bounds


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.005, max_value=0.05),
    t1=st.floats(min_value=0.2, max_value=0.7),
    t2=st.floats(min_value=0.75, max_value=0.98),
)
def test_round_trip_property(alpha, t1, t2):
    b = compute_boundaries(alpha, (t1, t2, 1.0))
    assert crossing_probability(b) == pytest.approx(alpha, abs=1e-5)
    assert all(z > 0 for z in b.z_bounds)


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    """The package needs only numpy and PyYAML: importing the package and
    the command line, and solving a setting's boundaries, load no scipy."""
    env = dict(os.environ)
    src = str(Path(gatedgsd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys, gatedgsd, gatedgsd.cli\n"
        "def scipy_loaded():\n"
        "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "print(scipy_loaded())\n"
        f"code = gatedgsd.cli.main(['boundaries', '--config', {str(CONFIG_DIR / 'setting2.yaml')!r},"
        f" '--out', {str(tmp_path)!r}])\n"
        "print(code, scipy_loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-2:] == ["False", "0 False"]
    assert any(tmp_path.iterdir())


def test_no_package_module_imports_scipy():
    """No module of the package imports scipy, at module level or inside a
    function: only the tests' second routes (`routes.py`) use it."""
    package = Path(gatedgsd.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path.name
