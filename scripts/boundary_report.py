#!/usr/bin/env python3
"""Print the efficacy boundary tables for every bundled setting.

Shows, per design arm and hypothesis, the Z-scale critical value and its
nominal one-sided p-value at each planned analysis, plus a three-route
consistency check of the crossing probability (solver recursion, and the
conditional-recursion integrator and library multivariate-normal CDF of
`tests/routes.py`).

It then checks the solver's quadrature grids: for every boundary row the
compiled plans of the bundled configs reach, and for three designs with
closely spaced looks, it prints the node count of each look's grid and the
largest change in z when every grid gets four times the nodes.
"""

import math
import pathlib
import sys

from gatedgsd import boundaries
from gatedgsd.boundaries import compute_boundaries
from gatedgsd.config import build_designs, parse_config
from gatedgsd.multiplicity import HYPOTHESES

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))  # the second routes
from routes import crossing_probability, crossing_probability_mvn, finer_grids  # noqa: E402

CONFIGS = ROOT / "src" / "gatedgsd" / "configs"
CLOSE_LOOKS = ((0.025, (0.5, 0.51, 1.0)), (0.025, (0.5, 0.5001, 1.0)),
               (0.0043, (0.0342, 0.2512, 0.5158, 0.5164, 1.0)))


def plan_rows():
    """Every (alpha, fractions) row the bundled configs' compiled plans can
    ask for, keyed as the engine asks `cached_boundaries`."""
    rows = set()
    for path in sorted(CONFIGS.glob("*.yaml")):
        for design in build_designs(parse_config(path)):
            for plan in design._plans.values():
                for levels, fractions in zip(plan.levels, plan.fractions):
                    rows.update((round(a, 12), fractions) for a in levels if a > 0.0)
    return sorted(rows)


def grid_check(alpha, fractions):
    """Each look grid's node count, and the largest |dz| against grids with
    four times the nodes (`finer_grids`)."""
    z = compute_boundaries(alpha, fractions).z_bounds
    with finer_grids():
        fine = compute_boundaries(alpha, fractions).z_bounds
    nodes = [len(boundaries._look_grid(fractions, k, z[k] * math.sqrt(fractions[k])).points)
             for k in range(len(fractions) - 1)]
    return nodes, max(abs(a - b) for a, b in zip(z, fine))


def main() -> int:
    for name in ("setting1", "setting2", "setting3"):
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        gsd = next(d for d in build_designs(cfg) if d.label == "gsd")
        print(f"== {name}")
        for h in HYPOTHESES:
            alpha = gsd.initial_alphas[h]
            fr = gsd.fractions[h]
            b = compute_boundaries(alpha, fr)
            routes = (crossing_probability(b), crossing_probability_mvn(b))
            zs = "  ".join(f"{z:7.4f}" for z in b.z_bounds)
            ps = "  ".join(f"{p:9.3g}" for p in b.nominal_p)
            print(f"  {str(h):7s} alpha={alpha:<8.5g} z: {zs}")
            print(f"          fractions {fr}  nominal p: {ps}")
            print(f"          crossing check: recursion {routes[0]:.7f}, "
                  f"mvn {routes[1]:.7f} (target {alpha:g})")
    rows = plan_rows()
    print(f"== grid check: {len(rows)} plan rows, then closely spaced looks")
    worst = 0.0
    for alpha, fr in rows + list(CLOSE_LOOKS):
        nodes, dz = grid_check(alpha, fr)
        worst = max(worst, dz)
        print(f"  alpha={alpha:<8.5g} fractions {fr}  nodes {nodes}  |dz| vs 4x {dz:.2e}")
    print(f"  largest |dz| vs 4x: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
