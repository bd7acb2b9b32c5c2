"""Metamorphic properties: how the bounds and the peel answer a related
graph, checked with no oracle.

Isolated vertices appended to both sides take no part in the peel: each
has potential 1, so k of them per side raise the halved potential sum, and
every bound value with it, by exactly k, and the witness keeps them all.
The bound report reads only degrees, so swapping the sides or relabelling
either one leaves it unchanged.  A larger d never lowers a vertex's
potential min(1, (d+1)/(x+1)), so ``floor_bound`` and ``strengthened``
never fall as d grows, while the two bounds that read only n and the
average degree do not move with d.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholes.bigraph import BipartiteGraph, generate
from biholes.bounds import bound_report
from biholes.extract import find_degenerate


@st.composite
def gnp_graphs(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]))
    return generate("gnp", n, seed=draw(st.integers(0, 2**64 - 1)), p=p)


def _padded(g: BipartiteGraph, k: int) -> BipartiteGraph:
    n = g.left_count
    return BipartiteGraph(n + k, n + k, g.left_adj + ((),) * k)


def _assert_padding_shifts_the_peel(g: BipartiteGraph, k: int, d: int) -> None:
    n = g.left_count
    witness, trace = find_degenerate(g, d)
    padded_witness, padded_trace = find_degenerate(_padded(g, k), d)
    assert padded_trace.steps == trace.steps
    added = tuple(range(n, n + k))
    assert padded_witness.left_set == witness.left_set + added
    assert padded_witness.right_set == witness.right_set + added
    assert padded_trace.initial_report.floor_bound == trace.initial_report.floor_bound + k
    assert len(padded_trace.bound_values) == len(trace.bound_values)
    assert [v - k for v in padded_trace.bound_values] == list(trace.bound_values)


@settings(max_examples=150, deadline=None)
@given(gnp_graphs(), st.integers(1, 5), st.integers(0, 3))
def test_isolated_vertices_shift_the_peel(g, k, d):
    _assert_padding_shifts_the_peel(g, k, d)


@pytest.mark.parametrize("d", [0, 2])
def test_isolated_vertices_shift_the_peel_of_a_larger_graph(d):
    _assert_padding_shifts_the_peel(generate("gnp", 2000, seed=1, p=0.005), 50, d)


@settings(max_examples=150, deadline=None)
@given(gnp_graphs(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_bound_report_ignores_side_swaps_and_relabelling(g, d, rng):
    n = g.left_count
    report = bound_report(g, d)
    assert bound_report(BipartiteGraph(n, n, g.right_adj), d) == report
    left_perm, right_perm = rng.sample(range(n), n), rng.sample(range(n), n)
    left_relabelled = tuple(g.left_adj[i] for i in left_perm)
    assert bound_report(BipartiteGraph(n, n, left_relabelled), d) == report
    right_relabelled = tuple(tuple(right_perm[j] for j in nbrs) for nbrs in g.left_adj)
    assert bound_report(BipartiteGraph(n, n, right_relabelled), d) == report


@settings(max_examples=150, deadline=None)
@given(gnp_graphs())
def test_bounds_never_fall_as_d_grows(g):
    reports = [bound_report(g, d) for d in range(5)]
    for before, after in zip(reports, reports[1:]):
        assert after.floor_bound >= before.floor_bound
        assert after.strengthened >= before.strengthened
        assert after.average_degree_bound == before.average_degree_bound
        assert after.log_reference == before.log_reference
