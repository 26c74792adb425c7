"""Boundary-engine tests.

The critical values are certified through three independent routes: the
sub-density solver under test, a separately coded conditional-recursion
integrator (`crossing_probability`), and scipy's multivariate-normal CDF
(`crossing_probability_mvn`). Frozen reference values below were produced
by a fine-grid trapezoid oracle coded from scratch before this module.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatedgsd
from gatedgsd import boundaries, engine
from gatedgsd.boundaries import (
    BoundarySet,
    cached_boundaries,
    compute_boundaries,
    crossing_probability,
    crossing_probability_mvn,
    ldobf_spend,
)
from gatedgsd.config import build_designs, parse_config
from gatedgsd.numerics import BracketError, norm_cdf

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
    monkeypatch.setattr(boundaries, "find_root", lambda f, lo, hi, x0, tol: bisection_secant(
        lambda b: f(b)[0], lo, hi, tol=tol))
    for row, new in zip(rows, newton):
        old = compute_boundaries(*row).z_bounds
        assert max(abs(a - b) for a, b in zip(old, new)) <= 1e-9, row


def test_newton_evaluations_per_look(monkeypatch):
    """Each look's search evaluates the crossing probability at most 16 times
    on setting2's rows, counting the two bracket ends."""
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
    assert counts and max(counts) <= 16


def test_crossing_probability_evaluated_once_per_point(monkeypatch):
    """No look evaluates the crossing probability twice at one point: the
    saturation check's value at the cap is reused as the search's upper
    bracket end. Within one look the grid is fixed, so equal erfc arguments
    mean an equal point."""
    points = []
    erfc = boundaries.erfc

    def recording(x):
        points.append(x.tobytes())
        return erfc(x)

    rows = plan_rows(monkeypatch, [p.stem for p in sorted(CONFIG_DIR.glob("*.yaml"))])
    monkeypatch.setattr(boundaries, "erfc", recording)
    for row in rows:
        points.clear()
        compute_boundaries(*row)
        assert points and len(set(points)) == len(points), row


def test_crossing_probability_routes_agree():
    for fr in ((0.5, 1.0), (0.69, 0.92, 1.0), (0.25, 0.5, 0.75, 1.0)):
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


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats is slow to import and only the MVN route needs it."""
    env = dict(os.environ)
    src = str(Path(gatedgsd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, gatedgsd, gatedgsd.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
