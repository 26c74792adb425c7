"""Hochberg intersection, and the engine's closed-form alpha passing checked
against the general graphical update rule."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gatedgsd.config import build_designs, parse_config
from gatedgsd.engine import DesignKind, _alpha
from gatedgsd.futility import Selection
from gatedgsd.multiplicity import (
    HYPOTHESES,
    Endpoint,
    HypothesisId,
    Population,
    hochberg_intersection,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "gatedgsd" / "configs"


def test_hochberg_examples():
    assert hochberg_intersection(0.01, 0.03) == pytest.approx(0.02)
    assert hochberg_intersection(0.03, 0.01) == pytest.approx(0.02)
    assert hochberg_intersection(0.04, 0.05) == pytest.approx(0.05)
    assert hochberg_intersection(0.5, 0.5) == pytest.approx(0.5)
    assert hochberg_intersection(0.0, 1.0) == pytest.approx(0.0)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_hochberg_bounds_and_symmetry(p1, p2):
    q = hochberg_intersection(p1, p2)
    assert q == hochberg_intersection(p2, p1)
    assert min(p1, p2) <= q <= max(p1, p2) + 1e-15
    assert q <= 2.0 * min(p1, p2) + 1e-15


# The alpha-passing graph of every design: PFS<->OS within each population,
# each edge with weight 1.
TRANSITIONS = {
    (HypothesisId(pop, a), HypothesisId(pop, b)): 1.0
    for pop in Population
    for a, b in ((Endpoint.PFS, Endpoint.OS), (Endpoint.OS, Endpoint.PFS))
}


def general_reject(alphas, transitions, h):
    """Graphical update rule (Bretz et al. 2009) on a graph of any shape:
    remove h, pass its alpha along its outgoing edges and reconnect the
    remaining nodes through it. Returns the new (alphas, transitions)."""
    def w(a, b):
        return transitions.get((a, b), 0.0)

    remaining = [l for l in alphas if l != h]
    new_alphas = {l: alphas[l] + alphas[h] * w(h, l) for l in remaining}
    new_trans = {}
    for l in remaining:
        for m in remaining:
            if l == m:
                continue
            denom = 1.0 - w(l, h) * w(h, l)
            g = (w(l, m) + w(l, h) * w(h, m)) / denom if denom > 1e-12 else 0.0
            if g > 0.0:
                new_trans[(l, m)] = min(g, 1.0)
    return new_alphas, new_trans


def general_graphs(design, selection):
    """The graphs the designs start from: GSD, and AD with both populations,
    share one graph at the overall alpha; otherwise each continuing
    population has its own, gGSD with one population putting all of its
    alpha on PFS."""
    pops = {Selection.CONTINUE_SUB_ONLY: (Population.SUB,),
            Selection.CONTINUE_FULL_ONLY: (Population.FULL,)}.get(selection, tuple(Population))
    if design.kind is DesignKind.GSD or (design.kind is DesignKind.AD and len(pops) == 2):
        return [(dict(design.initial_alphas), dict(TRANSITIONS))]
    graphs = []
    for pop in pops:
        pfs, os_ = HypothesisId(pop, Endpoint.PFS), HypothesisId(pop, Endpoint.OS)
        if design.kind is DesignKind.GGSD and len(pops) == 1:
            alphas = {pfs: design.alpha, os_: 0.0}
        else:
            alphas = {pfs: design.initial_alphas[pfs], os_: design.initial_alphas[os_]}
        graphs.append((alphas, {e: g for e, g in TRANSITIONS.items()
                                if e[0].population is pop}))
    return graphs


def test_closed_form_alpha_matches_general_update_rule():
    # Every arm, every scenario and every rejection order of the in-scope
    # hypotheses: the engine's alpha equals the general rule's, bit for bit
    # (a hypothesis out of scope or already rejected holds 0).
    designs = [d for name in ("setting1", "setting2", "setting3", "table5_example")
               for d in build_designs(parse_config(CONFIG_DIR / f"{name}.yaml"))]
    for design in designs:
        selections = [None] if design.kind is DesignKind.GSD else [
            s for s in Selection if s is not Selection.STOP_FUTILITY]
        for selection in selections:
            start = general_graphs(design, selection)
            in_scope = [h for h in HYPOTHESES if any(h in a for a, _ in start)]
            plan = design._plans[selection]
            assert [HYPOTHESES[i] for i in plan.in_scope] == in_scope
            for order in itertools.permutations(in_scope):
                graphs = list(start)
                rejected = 0
                for step in range(len(order) + 1):
                    if step:
                        h = order[step - 1]
                        gi = next(j for j, (a, _) in enumerate(graphs) if h in a)
                        graphs[gi] = general_reject(*graphs[gi], h)
                        rejected |= 1 << HYPOTHESES.index(h)
                    for i, h in enumerate(HYPOTHESES):
                        expected = next((a[h] for a, _ in graphs if h in a), 0.0)
                        assert _alpha(plan, rejected, i).hex() == expected.hex(), (
                            design.label, selection, order[:step], str(h))
