"""Peeling extraction: hand-traced runs, trace auditing, and the guarantee
that what comes out is at least as large as the bounds promise."""

import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholes.bigraph import BipartiteGraph, Side, VertexRef, build_graph, generate
from biholes.bounds import floor_bound, strengthened_bound
from biholes.errors import NegativeD, NoEdges, TraceMismatch, UnbalancedGraph
from biholes.extract import (
    LOW_DEGREE_EDGE_DELETION,
    PAIR_CASE1,
    PAIR_CASE2,
    BiholeWitness,
    PeelStep,
    PeelTrace,
    _run_peel,
    check_trace,
    find_bihole,
    find_degenerate,
    select_pair,
)
from biholes.oracle import (
    check_elimination_order,
    is_bihole,
    max_bihole_exact,
    max_degenerate_exact,
)
from reference_peel import reference_peel


def c6() -> BipartiteGraph:
    return generate("cycle", 3)


@st.composite
def balanced_graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    return build_graph(n, n, edges)


# -- pair selection -----------------------------------------------------------


def test_select_pair_prefers_nonadjacent():
    assert select_pair(c6()) == (0, 2, 1)
    assert select_pair(build_graph(2, 2, [(0, 0), (1, 1)])) == (0, 1, 1)


def test_select_pair_falls_back_to_case_two():
    assert select_pair(generate("complete", 2)) == (0, 0, 2)
    assert select_pair(generate("complete", 5)) == (0, 0, 2)


def test_select_pair_preconditions():
    with pytest.raises(NoEdges):
        select_pair(generate("edgeless", 3))
    with pytest.raises(UnbalancedGraph):
        select_pair(build_graph(1, 2, [(0, 0)]))


# -- bi-hole extraction, hand-traced -------------------------------------------


def test_find_bihole_c6():
    w, tr = find_bihole(c6())
    assert w == BiholeWitness(left_set=(2,), right_set=(1,))
    assert is_bihole(c6(), w.left_set, w.right_set)
    assert [(s.kind, s.a, s.b) for s in tr.steps] == [
        (PAIR_CASE1, 0, 2),
        (PAIR_CASE1, 1, 0),
    ]
    assert [s.degrees_before for s in tr.steps] == [(2, 2, 2, 2), (1, 1, 1, 1)]
    assert tr.bound_values == (Fraction(1, 3), Fraction(1, 2), Fraction(1))
    assert tr.initial_report.floor_bound == 1
    assert check_trace(c6(), tr, 0)


def test_find_bihole_k33_removes_diagonal():
    g = generate("complete", 3)
    w, tr = find_bihole(g)
    assert w.size == 0
    assert [(s.kind, s.a, s.b) for s in tr.steps] == [
        (PAIR_CASE2, 0, 0),
        (PAIR_CASE2, 1, 1),
        (PAIR_CASE2, 2, 2),
    ]
    assert tr.bound_values == (Fraction(0),) * 4
    assert check_trace(g, tr, 0)


def test_find_bihole_edgeless_keeps_everything():
    g = generate("edgeless", 4)
    w, tr = find_bihole(g)
    assert w == BiholeWitness(left_set=(0, 1, 2, 3), right_set=(0, 1, 2, 3))
    assert tr.steps == ()
    assert tr.bound_values == (Fraction(4),)


def test_find_bihole_empty_graph():
    w, tr = find_bihole(build_graph(0, 0, []))
    assert w.size == 0
    assert tr.bound_values == (Fraction(0),)
    assert check_trace(build_graph(0, 0, []), tr, 0)


def test_find_bihole_requires_balance():
    with pytest.raises(UnbalancedGraph):
        find_bihole(build_graph(2, 3, []))


# -- degenerate extraction, hand-traced ------------------------------------------


def test_find_degenerate_k22_d1():
    g = generate("complete", 2)
    w, tr = find_degenerate(g, 1)
    assert (w.left_set, w.right_set) == ((1,), (1,))
    assert w.elimination_order == (
        VertexRef(Side.LEFT, 1),
        VertexRef(Side.RIGHT, 1),
    )
    assert [(s.kind, s.a, s.b, s.v) for s in tr.steps] == [
        (PAIR_CASE2, 0, 0, None),
        (LOW_DEGREE_EDGE_DELETION, None, None, VertexRef(Side.LEFT, 1)),
    ]
    assert tr.bound_values == (Fraction(1),) * 3
    assert check_elimination_order(g, w.left_set, w.right_set, 1, w.elimination_order)
    assert check_trace(g, tr, 1)


def test_find_degenerate_k33_d3_keeps_everything():
    g = generate("complete", 3)
    w, tr = find_degenerate(g, 3)
    assert (w.left_set, w.right_set) == ((0, 1, 2), (0, 1, 2))
    # every step only deletes edges: each vertex in turn drops to degree 0
    assert [s.kind for s in tr.steps] == [LOW_DEGREE_EDGE_DELETION] * 5
    assert [s.v for s in tr.steps] == [
        VertexRef(Side.LEFT, 0),
        VertexRef(Side.RIGHT, 0),
        VertexRef(Side.LEFT, 1),
        VertexRef(Side.RIGHT, 1),
        VertexRef(Side.LEFT, 2),
    ]
    assert tr.bound_values == (Fraction(3),) * 6
    assert w.elimination_order == (
        VertexRef(Side.LEFT, 0),
        VertexRef(Side.RIGHT, 0),
        VertexRef(Side.LEFT, 1),
        VertexRef(Side.RIGHT, 1),
        VertexRef(Side.LEFT, 2),
        VertexRef(Side.RIGHT, 2),
    )
    assert check_trace(g, tr, 3)


def test_find_degenerate_rejects_negative_d():
    with pytest.raises(NegativeD):
        find_degenerate(c6(), -1)


def test_degenerate_at_zero_is_bihole_extraction():
    for g in (c6(), generate("complete", 3), generate("matching", 5), generate("crown", 4)):
        wb, trb = find_bihole(g)
        wd, trd = find_degenerate(g, 0)
        assert (wd.left_set, wd.right_set) == (wb.left_set, wb.right_set)
        assert trd == trb


# -- trace auditing ----------------------------------------------------------------


def test_check_trace_accepts_own_output():
    for g in (c6(), generate("complete", 4), generate("crown", 4)):
        for d in (0, 1, 2):
            _, tr = find_degenerate(g, d)
            assert check_trace(g, tr, d)


def test_check_trace_rejects_adjacent_case1():
    _, tr = find_bihole(c6())
    forged = PeelTrace(
        steps=(PeelStep(kind=PAIR_CASE1, degrees_before=(2, 2, 2, 2), a=0, b=0),),
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch, match="adjacent"):
        check_trace(c6(), forged, 0)


def test_check_trace_rejects_case2_when_escape_exists():
    _, tr = find_bihole(c6())
    forged = PeelTrace(
        steps=(PeelStep(kind=PAIR_CASE2, degrees_before=(2, 2, 2, 2), a=0, b=0),),
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch, match="nonadjacent"):
        check_trace(c6(), forged, 0)


def test_check_trace_rejects_wrong_graph():
    _, tr = find_bihole(c6())
    with pytest.raises(TraceMismatch):
        check_trace(generate("complete", 3), tr, 0)


def test_check_trace_rejects_forged_degrees():
    _, tr = find_bihole(c6())
    first = tr.steps[0]
    forged_step = PeelStep(kind=first.kind, degrees_before=(2, 2, 1, 2), a=first.a, b=first.b)
    forged = PeelTrace(
        steps=(forged_step,) + tr.steps[1:],
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch, match="degrees"):
        check_trace(c6(), forged, 0)


def test_check_trace_rejects_out_of_band_edge_deletion():
    g = generate("complete", 3)
    _, tr = find_degenerate(g, 1)
    forged = PeelTrace(
        steps=(
            PeelStep(
                kind=LOW_DEGREE_EDGE_DELETION,
                degrees_before=(3, 3, 3, None),
                v=VertexRef(Side.LEFT, 0),
            ),
        ),
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch):
        check_trace(g, forged, 1)


def test_check_trace_rejects_dead_vertex_reuse():
    _, tr = find_bihole(c6())
    doubled = PeelTrace(
        steps=(tr.steps[0], tr.steps[0]),
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch):
        check_trace(c6(), doubled, 0)


def test_check_trace_rejects_unknown_kind():
    _, tr = find_bihole(c6())
    forged = PeelTrace(
        steps=(PeelStep(kind="swap", degrees_before=(2, 2, 2, 2), a=0, b=2),),
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch, match="kind"):
        check_trace(c6(), forged, 0)


def test_check_trace_false_when_value_decreases():
    """A structurally legal replay can still fail to certify: rechecking a
    d = 0 trace at d = 2 makes the tracked value drop after the first pair
    removal, so the verdict is False rather than an exception."""
    _, tr = find_bihole(c6())
    assert check_trace(c6(), tr, 2) is False


def test_check_trace_reads_stored_claims():
    g = generate("gnp", 30, seed=5, p=0.3)
    _, tr = find_bihole(g)
    assert check_trace(g, tr, 0)
    zeroed = replace(tr, bound_values=tuple(Fraction(0) for _ in tr.bound_values))
    assert not check_trace(g, zeroed, 0)
    assert not check_trace(g, replace(tr, bound_values=tr.bound_values[:-1]), 0)
    assert not check_trace(g, replace(tr, bound_values=tr.bound_values + (tr.bound_values[-1],)), 0)
    report = tr.initial_report
    for forged in (
        replace(report, n=report.n + 1),
        replace(report, d=1),
        replace(report, strengthened=report.strengthened + 1),
    ):
        assert not check_trace(g, replace(tr, initial_report=forged), 0)


def test_check_trace_rejects_truncated_trace():
    g = generate("gnp", 30, seed=5, p=0.3)
    _, tr = find_bihole(g)
    assert len(tr.steps) == 21
    for steps in (tr.steps[:1], tr.steps[:-1], ()):
        truncated = PeelTrace(
            steps=steps, initial_report=tr.initial_report, bound_values=tr.bound_values
        )
        with pytest.raises(TraceMismatch, match="edges left"):
            check_trace(g, truncated, 0)


def test_check_trace_rejects_negative_d():
    _, tr = find_bihole(c6())
    with pytest.raises(NegativeD):
        check_trace(c6(), tr, -1)


# -- guarantees, property-based ------------------------------------------------------


@settings(max_examples=120)
@given(balanced_graphs())
def test_bihole_extraction_guarantees(g):
    w, tr = find_bihole(g)
    assert is_bihole(g, w.left_set, w.right_set)
    s = strengthened_bound(g, 0)
    assert tr.bound_values[0] == s
    assert tr.bound_values[-1] == w.size
    assert w.size >= math.ceil(s) >= floor_bound(g, 0)
    values = list(tr.bound_values)
    assert values == sorted(values)
    assert check_trace(g, tr, 0)
    if g.left_count <= 6:
        assert w.size <= max_bihole_exact(g)


@settings(max_examples=80)
@given(balanced_graphs(max_n=6), st.integers(0, 3))
def test_degenerate_extraction_guarantees(g, d):
    w, tr = find_degenerate(g, d)
    assert check_elimination_order(g, w.left_set, w.right_set, d, w.elimination_order)
    assert tr.bound_values[-1] == w.size
    assert w.size >= math.ceil(strengthened_bound(g, d)) >= floor_bound(g, d)
    assert check_trace(g, tr, d)
    assert w.size <= max_degenerate_exact(g, d)


@settings(max_examples=60)
@given(balanced_graphs())
def test_extraction_is_deterministic(g):
    assert find_bihole(g) == find_bihole(g)
    assert find_degenerate(g, 2) == find_degenerate(g, 2)


# -- equivalence with the rescan reference engine -------------------------------------


@st.composite
def peel_inputs(draw):
    """Random gnp at any density, plus the dense and near-regular families
    where max-degree buckets are large and case 2 is common."""
    kind = draw(st.sampled_from(["gnp", "complete", "crown", "cycle"]))
    if kind == "gnp":
        n = draw(st.integers(1, 30))
        p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 0.9]))
        return generate("gnp", n, seed=draw(st.integers(0, 2**64 - 1)), p=p)
    return generate(kind, draw(st.integers(2, 12)))


@settings(max_examples=150, deadline=None)
@given(peel_inputs(), st.integers(0, 3))
def test_peel_matches_rescan_reference(g, d):
    assert _run_peel(g, d) == reference_peel(g, d)


def test_peel_scales_to_sparse_n1600():
    """n = 1600 at average degree 10, where the rescan engine needs over 15 s."""
    g = generate("gnp", 1600, seed=1, p=10 / 1600)
    start = time.perf_counter()
    w, tr = find_degenerate(g, 2)
    assert check_trace(g, tr, 2)
    elapsed = time.perf_counter() - start
    assert check_elimination_order(g, w.left_set, w.right_set, 2, w.elimination_order)
    assert w.size >= tr.initial_report.ceil_strengthened
    assert elapsed < 5.0, f"find_degenerate + check_trace took {elapsed:.2f} s"
