"""Graphical reallocation, Hochberg intersection, and closed-testing gate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedgsd.multiplicity import (
    H_F_OS,
    H_F_PFS,
    H_S_OS,
    H_S_PFS,
    HYPOTHESES,
    GraphStateError,
    HypothesisGraph,
    hochberg_intersection,
    intersection_boundary,
)


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


def test_intersection_boundary_is_min():
    assert intersection_boundary([2.5, 2.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        intersection_boundary([])


def test_graph_reallocation_simple_pair():
    g = HypothesisGraph(
        alphas={H_F_PFS: 0.015, H_F_OS: 0.010},
        transitions={(H_F_PFS, H_F_OS): 1.0, (H_F_OS, H_F_PFS): 1.0},
    )
    g2 = g.reject(H_F_PFS)
    assert g2.alpha(H_F_OS) == pytest.approx(0.025)
    assert g2.alpha(H_F_PFS) == 0.0
    assert H_F_PFS in g2.rejected


def test_graph_update_rule_chain():
    # Three-node chain: A -> B -> C -> A with full weights. Rejecting A
    # passes alpha to B; the B -> C edge is preserved and C -> B appears
    # through the removed node.
    a, b, c = H_F_PFS, H_F_OS, H_S_PFS
    g = HypothesisGraph(
        alphas={a: 0.01, b: 0.01, c: 0.005},
        transitions={(a, b): 1.0, (b, c): 1.0, (c, a): 1.0},
    )
    g2 = g.reject(a)
    assert g2.alpha(b) == pytest.approx(0.02)
    assert g2.alpha(c) == pytest.approx(0.005)
    assert g2.weight(b, c) == pytest.approx(1.0)
    assert g2.weight(c, b) == pytest.approx(1.0)  # via the removed node


def test_graph_alpha_conserved_on_full_cycle():
    g = HypothesisGraph(
        alphas={h: 0.025 / 4 for h in HYPOTHESES},
        transitions={(a, b): 1.0 / 3.0 for a in HYPOTHESES for b in HYPOTHESES if a != b},
    )
    total = g.total_alpha()
    for h in HYPOTHESES[:-1]:
        g = g.reject(h)
        assert g.total_alpha() == pytest.approx(total, abs=1e-12)


def test_graph_rejects_double_rejection_and_unknown_node():
    g = HypothesisGraph(alphas={H_F_PFS: 0.025})
    g2 = g.reject(H_F_PFS)
    with pytest.raises(GraphStateError):
        g2.reject(H_F_PFS)
    with pytest.raises(GraphStateError):
        g.reject(H_S_OS)


def test_graph_validates_weights():
    with pytest.raises(ValueError):
        HypothesisGraph(alphas={H_F_PFS: 0.01, H_F_OS: 0.01},
                        transitions={(H_F_PFS, H_F_OS): 0.7, (H_F_PFS, H_S_OS): 0.5})
    with pytest.raises(ValueError):
        HypothesisGraph(alphas={H_F_PFS: 0.01}, transitions={(H_F_PFS, H_F_PFS): 1.0})
    with pytest.raises(ValueError):
        HypothesisGraph(alphas={H_F_PFS: -0.01})


@settings(max_examples=100)
@given(
    alphas=st.lists(st.floats(min_value=0.0, max_value=0.01), min_size=4, max_size=4),
    order=st.permutations(range(4)),
)
def test_alpha_never_exceeds_initial_total(alphas, order):
    g = HypothesisGraph(
        alphas=dict(zip(HYPOTHESES, alphas)),
        transitions={(a, b): 1.0 / 3.0 for a in HYPOTHESES for b in HYPOTHESES if a != b},
    )
    total0 = g.total_alpha()
    for idx in order[:3]:
        g = g.reject(HYPOTHESES[idx])
        assert g.total_alpha() <= total0 + 1e-12
        assert all(g.alpha(h) >= 0 for h in HYPOTHESES)
