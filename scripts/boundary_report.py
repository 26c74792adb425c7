#!/usr/bin/env python3
"""Print the efficacy boundary tables for every bundled setting.

Shows, per design arm and hypothesis, the Z-scale critical value and its
nominal one-sided p-value at each planned analysis, plus a three-route
consistency check of the crossing probability (solver recursion,
conditional-recursion integrator, library multivariate-normal CDF).
"""

import pathlib
import sys

from gatedgsd.boundaries import compute_boundaries, crossing_probability, crossing_probability_mvn
from gatedgsd.config import build_designs, parse_config
from gatedgsd.multiplicity import HYPOTHESES

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
