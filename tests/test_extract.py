"""Peeling extraction: hand-traced runs, trace auditing, and the guarantee
that what comes out is at least as large as the bounds promise."""

import gc
import math
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction
from heapq import heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholes import extract
from biholes.bigraph import BipartiteGraph, Side, VertexRef, build_graph, generate
from biholes.bounds import bound_report
from biholes.errors import NegativeD, TraceMismatch, UnbalancedGraph
from biholes.extract import (
    LOW_DEGREE_EDGE_DELETION,
    PAIR_CASE1,
    PAIR_CASE2,
    BiholeWitness,
    PeelStep,
    PeelTrace,
    _extract,
    check_trace,
    find_bihole,
    find_degenerate,
)
from biholes.oracle import (
    StuckCore,
    check_elimination_order,
    is_bihole,
    max_bihole_exact,
    max_degenerate_exact,
)
from reference_peel import reference_peel


def _peel_result(g: BipartiteGraph, d: int):
    """(lefts, rights, steps, values) of g's peel at d, the tuple that
    ``reference_peel`` computes."""
    lefts, rights, trace = _extract(g, d, "find_degenerate")
    return lefts, rights, trace.steps, trace.bound_values


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


def first_pair(g: BipartiteGraph) -> tuple[str, int, int]:
    step = find_bihole(g)[1].steps[0]
    return step.kind, step.a, step.b


def test_select_pair_prefers_nonadjacent():
    assert first_pair(c6()) == (PAIR_CASE1, 0, 2)
    assert first_pair(build_graph(2, 2, [(0, 0), (1, 1)])) == (PAIR_CASE1, 0, 1)


def test_select_pair_falls_back_to_case_two():
    assert first_pair(generate("complete", 2)) == (PAIR_CASE2, 0, 0)
    assert first_pair(generate("complete", 5)) == (PAIR_CASE2, 0, 0)


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


def test_find_degenerate_raises_on_a_witness_that_is_not_d_degenerate(monkeypatch):
    stuck = StuckCore((0,), (0,))
    monkeypatch.setattr(extract, "degeneracy_certificate", lambda *args: stuck)
    with pytest.raises(RuntimeError) as info:
        find_degenerate(generate("cycle", 3), 1)
    assert "not 1-degenerate" in str(info.value) and str(stuck) in str(info.value)


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
    with pytest.raises(TraceMismatch, match="but the rule takes"):
        check_trace(c6(), forged, 0)


def test_check_trace_rejects_case2_when_escape_exists():
    _, tr = find_bihole(c6())
    forged = PeelTrace(
        steps=(PeelStep(kind=PAIR_CASE2, degrees_before=(2, 2, 2, 2), a=0, b=0),),
        initial_report=tr.initial_report,
        bound_values=tr.bound_values,
    )
    with pytest.raises(TraceMismatch, match="but the rule takes"):
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
    with pytest.raises(TraceMismatch, match="kind"):
        forged = PeelTrace(
            steps=(PeelStep(kind="swap", degrees_before=(2, 2, 2, 2), a=0, b=2),),
            initial_report=tr.initial_report,
            bound_values=tr.bound_values,
        )
        check_trace(c6(), forged, 0)


def test_check_trace_rejects_d0_trace_at_d2():
    """At d = 2 the rule first isolates a low-degree vertex, where the d = 0
    trace records a pair removal."""
    _, tr = find_bihole(c6())
    with pytest.raises(TraceMismatch, match="low_degree_edge_deletion"):
        check_trace(c6(), tr, 2)


def test_check_trace_rejects_legal_steps_the_rule_does_not_take():
    """Both pairs are nonadjacent maximum-degree pairs and the bound values
    are the replayed ones, but the rule takes (0, 2) first, not (1, 0)."""
    _, tr = find_bihole(c6())
    forged = PeelTrace(
        steps=(
            PeelStep(kind=PAIR_CASE1, degrees_before=(2, 2, 2, 2), a=1, b=0),
            PeelStep(kind=PAIR_CASE1, degrees_before=(1, 1, 1, 1), a=0, b=2),
        ),
        initial_report=tr.initial_report,
        bound_values=(Fraction(1, 3), Fraction(1, 2), Fraction(1)),
    )
    with pytest.raises(TraceMismatch, match=r"step 0: .*a=1, b=0.* the rule takes .*a=0, b=2"):
        check_trace(c6(), forged, 0)


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
        replace(report, floor_bound=report.floor_bound + 1),
    ):
        assert not check_trace(g, replace(tr, initial_report=forged), 0)


def test_check_trace_rejects_a_step_after_the_peel_ends():
    for g in (c6(), generate("gnp", 30, seed=5, p=0.3)):
        _, tr = find_bihole(g)
        extra = tr.steps[-1]
        extended = replace(tr, steps=tr.steps + (extra,))
        message = f"step {len(tr.steps)}: {extra} recorded after the peel ends"
        with pytest.raises(TraceMismatch, match=f"^{re.escape(message)}$"):
            check_trace(g, extended, 0)


def test_check_trace_names_the_edges_a_truncated_trace_leaves():
    """c6 loses 4 of its 6 edges in the first step; on gnp the count left is
    that of the edges between the vertices no recorded step removed."""
    def rejects(g, tr, k, left):
        message = f"^trace ends after {k} steps with {left} edges left$"
        with pytest.raises(TraceMismatch, match=message):
            check_trace(g, replace(tr, steps=tr.steps[:k]), 0)

    rejects(c6(), find_bihole(c6())[1], 0, 6)
    rejects(c6(), find_bihole(c6())[1], 1, 2)
    g = generate("gnp", 30, seed=5, p=0.3)
    _, tr = find_bihole(g)
    for k in (1, 10, len(tr.steps) - 1):
        gone_left = {s.a for s in tr.steps[:k]}
        gone_right = {s.b for s in tr.steps[:k]}
        left = sum(
            1 for u, nbrs in enumerate(g.left_adj) if u not in gone_left
            for v in nbrs if v not in gone_right
        )
        assert left > 0
        rejects(g, tr, k, left)


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


def _mutated_step(step: PeelStep, field: str, entry: int) -> PeelStep:
    """The step with one field changed to a different value."""
    if field == "kind":
        kinds = [PAIR_CASE1, PAIR_CASE2, LOW_DEGREE_EDGE_DELETION]
        return replace(step, kind=kinds[(kinds.index(step.kind) + 1) % 3])
    if field == "degrees_before":
        degrees = list(step.degrees_before)
        degrees[entry] = 0 if degrees[entry] is None else degrees[entry] + 1
        return replace(step, degrees_before=tuple(degrees))
    if field == "v":
        left0 = VertexRef(Side.LEFT, 0)
        return replace(step, v=VertexRef(Side.RIGHT, 0) if step.v == left0 else left0)
    old = getattr(step, field)
    return replace(step, **{field: 0 if old is None else old + 1})


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 20),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 3),
    st.data(),
)
def test_check_trace_rejects_any_mutation(n, p, seed, d, data):
    """One changed step field, a dropped or a duplicated step raises; a
    changed stored claim makes the verdict False."""
    g = generate("gnp", n, seed=seed, p=p)
    _, tr = find_degenerate(g, d)
    assert check_trace(g, tr, d)
    steps = list(tr.steps)
    if steps:
        pos = data.draw(st.integers(0, len(steps) - 1))
        edit = data.draw(st.sampled_from(["kind", "a", "b", "v", "degrees_before", "drop", "dup"]))
        if edit == "drop":
            del steps[pos]
        elif edit == "dup":
            steps.insert(pos, steps[pos])
        else:
            steps[pos] = _mutated_step(steps[pos], edit, data.draw(st.integers(0, 3)))
        with pytest.raises(TraceMismatch):
            check_trace(g, replace(tr, steps=tuple(steps)), d)
    pos = data.draw(st.integers(0, len(tr.bound_values) - 1))
    values = list(tr.bound_values)
    values[pos] += data.draw(st.sampled_from([Fraction(-1, 2), Fraction(1)]))
    assert check_trace(g, replace(tr, bound_values=tuple(values)), d) is False
    report = tr.initial_report
    field = data.draw(st.sampled_from(["n", "d", "floor_bound", "strengthened"]))
    forged = replace(report, **{field: getattr(report, field) + 1})
    assert check_trace(g, replace(tr, initial_report=forged), d) is False


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 16),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 3),
    st.data(),
)
def test_check_trace_verdict_ignores_the_numeric_type(n, p, seed, d, data):
    """Stored claims are compared by value: the verdict is that of comparing
    them with the true Fractions, whether they are ints, floats, or
    Fractions one unit of the replay's denominator off."""
    g = generate("gnp", n, seed=seed, p=p)
    _, tr = find_degenerate(g, d)
    unit = Fraction(1, 2 * extract._WorkingGraph(g, d).scale)
    true = tr.bound_values
    pos = data.draw(st.integers(0, len(true) - 1))
    for values in (
        tuple(int(v) for v in true),
        tuple(float(v) for v in true),
        tuple(int(v) if v.denominator == 1 else v for v in true),
        tuple(float(v) if float(v) == v else v for v in true),
        true[:pos] + (true[pos] + unit,) + true[pos + 1 :],
        true[:pos] + (true[pos] - unit,) + true[pos + 1 :],
    ):
        assert check_trace(g, replace(tr, bound_values=values), d) is (values == true)
    report = tr.initial_report
    value = report.strengthened
    for forged in (int(value), float(value), value + unit, value - unit):
        claims = replace(tr, initial_report=replace(report, strengthened=forged))
        assert check_trace(g, claims, d) is (forged == value)


# -- guarantees, property-based ------------------------------------------------------


@settings(max_examples=120)
@given(balanced_graphs())
def test_bihole_extraction_guarantees(g):
    w, tr = find_bihole(g)
    assert is_bihole(g, w.left_set, w.right_set)
    rep = bound_report(g, 0)
    assert tr.bound_values[0] == rep.strengthened
    assert tr.bound_values[-1] == w.size
    assert w.size >= math.ceil(rep.strengthened) >= rep.floor_bound
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
    rep = bound_report(g, d)
    assert w.size >= math.ceil(rep.strengthened) >= rep.floor_bound
    assert check_trace(g, tr, d)
    assert w.size <= max_degenerate_exact(g, d)


def trace_order(w, tr) -> list[VertexRef]:
    """The low-degree steps' vertices in step order, then the rest of the
    witness, Left side first, ascending."""
    first = [step.v for step in tr.steps if step.kind == LOW_DEGREE_EDGE_DELETION]
    seen = set(first)
    rest = [VertexRef(Side.LEFT, i) for i in w.left_set]
    rest += [VertexRef(Side.RIGHT, j) for j in w.right_set]
    return first + [v for v in rest if v not in seen]


TRACE_ORDER_GRAPHS = [
    ("gnp", n, seed, p)
    for n in (10, 20, 40, 80, 120)
    for p in (0.05, 0.1, 0.2, 0.4, 0.6)
    for seed in (1, 2, 3)
] + [
    (model, n, 0, None)
    for model in ("complete", "crown", "cycle", "matching")
    for n in (3, 8, 20, 40)
]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_the_trace_orders_the_witness_for_elimination(d):
    """The paper's argument, read off the trace: a vertex has at most one
    low-degree step, no witness edge is deleted but by a low-degree step at
    one of its ends, and such a step leaves at most d later neighbours; so
    listing those steps' vertices first gives a valid d-elimination order."""
    for model, n, seed, p in TRACE_ORDER_GRAPHS:
        g = generate(model, n, seed=seed, p=p)
        w, tr = find_degenerate(g, d)
        order = trace_order(w, tr)
        assert len(order) == 2 * w.size, (model, n, seed, p)
        assert check_elimination_order(g, w.left_set, w.right_set, d, order), (model, n, seed, p)


@settings(max_examples=60)
@given(balanced_graphs())
def test_extraction_is_deterministic(g):
    assert find_bihole(g) == find_bihole(g)
    assert find_degenerate(g, 2) == find_degenerate(g, 2)


# -- equivalence with the rescan reference engine -------------------------------------


@st.composite
def peel_inputs(draw):
    """Random gnp at any density, the dense and near-regular families where
    max-degree buckets are large and case 2 is common, and the staircase
    (left i ~ right j iff j <= i), where every degree on a side is distinct
    and the max bucket changes at every step."""
    kind = draw(st.sampled_from(["gnp", "complete", "crown", "cycle", "staircase"]))
    if kind == "gnp":
        n = draw(st.integers(1, 30))
        p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 0.9]))
        return generate("gnp", n, seed=draw(st.integers(0, 2**64 - 1)), p=p)
    if kind == "staircase":
        n = draw(st.integers(1, 20))
        return build_graph(n, n, [(i, j) for i in range(n) for j in range(i + 1)])
    return generate(kind, draw(st.integers(2, 12)))


@settings(max_examples=150, deadline=None)
@given(peel_inputs(), st.integers(0, 3))
def test_peel_matches_rescan_reference(g, d):
    assert _peel_result(g, d) == reference_peel(g, d)


@settings(max_examples=100, deadline=None)
@given(peel_inputs(), st.integers(0, 6))
def test_peel_matches_rescan_reference_up_to_d6(g, d):
    """d up to 6 also reaches d >= max degree, where every bucket is a heap."""
    assert _peel_result(g, d) == reference_peel(g, d)


def test_peel_pushes_heaps_only_for_low_buckets(monkeypatch):
    """Buckets above d are sorted when they become the max, not kept as heaps:
    at d = 0 the peel and its replay push nothing, at d = 2 they push only
    into the heaps of buckets 1 and 2."""
    works, pushed = [], []

    class Recording(extract._WorkingGraph):
        def __init__(self, g, d):
            super().__init__(g, d)
            works.append(self)

    def recording_push(heap, item):
        pushed.append(heap)
        heappush(heap, item)

    monkeypatch.setattr(extract, "_WorkingGraph", Recording)
    monkeypatch.setattr(extract, "heappush", recording_push)
    g = generate("gnp", 400, seed=1, p=0.5)
    assert check_trace(g, find_bihole(g)[1], 0)
    assert len(works) == 2 and pushed == []
    assert check_trace(g, find_degenerate(g, 2)[1], 2)
    low = {id(heap) for work in works[2:] for side in work.queue for heap in side[1:3]}
    assert pushed and all(id(heap) in low for heap in pushed)


def test_check_trace_builds_no_fraction_or_step_per_step(monkeypatch):
    """The replay compares field tuples and integer numerators, so a matching
    check_trace constructs O(1) Fractions and PeelSteps, not one per step."""
    g = generate("gnp", 400, seed=1, p=0.5)
    _, tr = find_degenerate(g, 2)
    built = Counter()
    new, init = Fraction.__new__, PeelStep.__init__

    def counting_new(cls, *args, **kwargs):
        built[Fraction] += 1
        return new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built[PeelStep] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(extract.Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(extract.PeelStep, "__init__", counting_init)
    assert check_trace(g, tr, 2)
    assert len(tr.steps) > 300
    assert built[Fraction] <= 2 and built[PeelStep] == 0


def _sparse_peel_of_6573_steps():
    """gnp 4000 at average degree 10 and d = 2: 6573 steps."""
    g = generate("gnp", 4000, seed=1, p=10 / 4000)
    return g, lambda: _extract(g, 2, "find_degenerate")


def test_extract_adds_no_gc_tracked_object_per_step():
    """The trace is a bytearray, an int array and a list of int numerators,
    none of whose entries the cyclic garbage collector tracks: a peel of
    6573 steps adds a few tracked objects (13 when measured), where one
    PeelStep, degrees tuple and Fraction per step added 24,880."""
    _, run = _sparse_peel_of_6573_steps()
    run()  # fills the caches that bound_report keeps
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        _, _, trace = run()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(trace.steps) == 6573
    assert added < 50, added


def test_extract_retains_under_128_bytes_per_step():
    """A step is 25 bytes of columns and a numerator, 40 more: the result of
    the 6573-step peel, its witness included, retains 96 bytes per step,
    where PeelSteps and Fractions retained 307."""
    _, run = _sparse_peel_of_6573_steps()
    tracemalloc.start()
    try:
        _, _, trace = run()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 128 * len(trace.steps), retained / len(trace.steps)


def test_steps_and_values_read_as_the_tuples_they_replace():
    """A trace's columns read back entry by entry, by index, slice and
    iteration, equal the tuples of PeelSteps and Fractions they hold, and a
    trace built by hand from those tuples equals the extracted one."""
    g = generate("gnp", 60, seed=3, p=0.1)
    for d in (0, 2):
        _, tr = find_degenerate(g, d)
        steps, values = tuple(tr.steps), tuple(tr.bound_values)
        assert all(type(step) is PeelStep for step in steps)
        assert all(type(value) is Fraction for value in values)
        assert tr.steps == steps and steps == tr.steps and tr.bound_values == values
        assert tr.steps[1:4] == steps[1:4] and type(tr.steps[1:4]) is tuple
        assert (tr.steps[-1], tr.bound_values[-1]) == (steps[-1], values[-1])
        assert tr.steps + steps[:1] == steps + steps[:1]
        assert hash(tr.steps) == hash(steps) and repr(tr.bound_values) == repr(values)
        with pytest.raises(IndexError):
            tr.steps[len(steps)]
        built = PeelTrace(list(steps), tr.initial_report, list(values))
        assert built == tr and hash(built) == hash(tr)
        assert check_trace(g, built, d)
        # a step that is no PeelStep is refused where the trace is built
        odd = steps[:2] + ((steps[2].kind, steps[2].a),) + steps[3:]
        with pytest.raises(TraceMismatch, match="^step 2: recorded"):
            replace(tr, steps=odd)


def test_max_pointers_are_exact_after_every_step():
    """Each side's max-degree pointer names its largest live degree before
    the first step and after every step, though ``_peel`` refreshes it only
    when a max bucket has emptied."""
    g = generate("gnp", 60, seed=2, p=0.3)
    for d in (0, 2):
        work, steps = extract._WorkingGraph(g, d), extract._Steps()
        # before the first step, then one step per call
        while True:
            assert work.max == [max(side) for side in work.deg], (d, len(steps))
            if not work.max[0]:
                break
            extract._peel(work, steps, [], 1)
        assert len(steps) >= 50 and work.max == [0, 0]


def test_the_step_loop_calls_no_helper_per_probe_or_refresh(monkeypatch):
    """gnp 400, p 0.025, d 2: ``refresh_max`` runs once in the constructor,
    then at most once per step and only after a step that emptied a max
    bucket; ``_lowest`` is called only from ``refresh_max``."""
    calls, stray, inside = [], [], [False]
    refresh, lowest = extract._WorkingGraph.refresh_max, extract._WorkingGraph._lowest

    def counting_refresh(self):
        calls.append(not (self.top_members[0] and self.top_members[1]))
        inside[0] = True
        refresh(self)
        inside[0] = False

    def checked_lowest(self, s, x):
        if not inside[0]:
            stray.append((s, x))
        return lowest(self, s, x)

    monkeypatch.setattr(extract._WorkingGraph, "refresh_max", counting_refresh)
    monkeypatch.setattr(extract._WorkingGraph, "_lowest", checked_lowest)
    work = extract._WorkingGraph(generate("gnp", 400, seed=1, p=0.025), 2)
    assert calls == [True]
    # the refreshes made so far, at the start and after each of 651 steps
    per_step, steps = [len(calls)], extract._Steps()
    while work.max[0]:
        extract._peel(work, steps, [], 1)
        per_step.append(len(calls))
    counts = Counter(map(int.__sub__, per_step[1:], per_step))
    assert len(per_step) == 652 and set(counts) == {0, 1} and counts[1] < 50
    assert all(calls) and stray == []


def test_pair_selection_on_a_matching_reads_each_bucket_entry_a_few_times(monkeypatch):
    """A perfect matching at d 0: each pair step cuts the front of both max
    buckets and drops two partners to degree 0, so the front skips move on
    by two entries a step.  The buckets are stacks, lowest member last:
    departed members are popped, each at most once, and the left scan
    stops at its first member with no covering search while the right
    bucket outnumbers the left degree, 1; so the peel reads O(n) bucket
    entries in all, where a scan walking the departed members again would
    read about n^2 / 4 per side."""
    reads, pops, searched = [0], [0], []

    class CountedList(list):
        def __getitem__(self, k):
            reads[0] += 1
            return list.__getitem__(self, k)

        def __iter__(self):
            for x in list.__iter__(self):
                reads[0] += 1
                yield x

        def __reversed__(self):
            for x in list.__reversed__(self):
                reads[0] += 1
                yield x

        def pop(self, *k):
            pops[0] += 1
            return list.pop(self, *k)

    drain, covers = extract._WorkingGraph._drain, extract._WorkingGraph._covers

    def counted_drain(self, s, x):
        found = drain(self, s, x)
        self.top_order[s] = CountedList(self.top_order[s])
        return found

    def counting_covers(self, i, cand_b):
        searched.append(len(cand_b))
        return covers(self, i, cand_b)

    monkeypatch.setattr(extract._WorkingGraph, "_drain", counted_drain)
    monkeypatch.setattr(extract._WorkingGraph, "_covers", counting_covers)
    n = 2000
    _, tr = find_bihole(generate("matching", n))
    assert len(tr.steps) == n // 2
    assert n < reads[0] < 6 * n and set(searched) <= {1}
    assert pops[0] <= 2 * n


def test_every_low_degree_step_deletes_one_to_d_edges():
    """The low-degree probe picks a live heap head of degree x in 1..d, so
    a low-degree step always deletes an edge; only a pair step can reach
    the no-progress guard."""
    seen = Counter()
    for d in (1, 2, 3, 5):
        for model, n, seed, p in TRACE_ORDER_GRAPHS:
            _, tr = find_degenerate(generate(model, n, seed=seed, p=p), d)
            low = [s.degrees_before[2] for s in tr.steps if s.kind == LOW_DEGREE_EDGE_DELETION]
            assert all(1 <= x <= d for x in low), (model, n, seed, p, d)
            seen.update(low)
    assert set(seen) == {1, 2, 3, 4, 5}


def test_a_pair_step_that_deletes_no_edge_raises_before_it_cuts(monkeypatch):
    """Removing two vertices of degree 0 changes nothing, so the peel would
    take the same step forever; the guard fires before anything is cut."""
    monkeypatch.setattr(extract._WorkingGraph, "select_pair", lambda self: (0, 0, 1))
    work = extract._WorkingGraph(build_graph(2, 2, [(1, 1)]), 0)
    with pytest.raises(RuntimeError, match="would delete no edge"):
        extract._peel(work, extract._Steps(), [])
    assert work.max == [1, 1]
    assert work.deg == ([0, 1], [0, 1])


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


# -- the lazy bucket queue: edge cases and the amortized drain bound -----------------


def _lopsided(n: int) -> BipartiteGraph:
    """Left 0 sees every right vertex and right j also sees left j, so the
    left max degree is n and the right one 2: the right side's first drain
    walks down from the shared top."""
    return build_graph(n, n, [(0, j) for j in range(n)] + [(j, j) for j in range(1, n)])


def _hub_and_block(k: int, m: int) -> BipartiteGraph:
    """Left 0 sees k pendant rights and K_{m,m} sits on lefts 1..m and rights
    0..m-1: at d >= 1 the pendants' low-degree steps move the left max
    pointer from k down to m before the first pair step."""
    edges = [(0, m + j) for j in range(k)] + [(1 + i, j) for i in range(m) for j in range(m)]
    return build_graph(m + k, m + k, edges)


def _sinking_member() -> BipartiteGraph:
    """Lefts 0 and 1 share the max bucket at degree 6.  At d >= 1 left 0
    loses its three pendant rights 0..2 while left 1 keeps the max at 6, so
    a member drops three degrees before the pointer leaves 6."""
    edges = [(0, j) for j in range(6)] + [(1, j) for j in range(3, 9)]
    edges += [(2, j) for j in range(6, 9)] + [(3, j) for j in range(6, 9)]
    edges += [(4, j) for j in range(3, 6)]
    return build_graph(9, 9, edges)


def _first_pair_step(steps) -> int:
    return next(k for k, step in enumerate(steps) if step.kind != LOW_DEGREE_EDGE_DELETION)


def _matches_reference(g: BipartiteGraph, d: int):
    """The steps of g's peel at d, after checking the peel against the rescan
    reference and its trace against the replay."""
    lefts, rights, trace = _extract(g, d, "find_degenerate")
    assert (lefts, rights, trace.steps, trace.bound_values) == reference_peel(g, d)
    assert check_trace(g, trace, d)
    return trace.steps


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_lazy_buckets_on_complete_bipartite(n, d):
    """K_{n,n}: every pair step is case 2, which empties both max buckets."""
    steps = _matches_reference(generate("complete", n), d)
    assert all(step.kind in (PAIR_CASE2, LOW_DEGREE_EDGE_DELETION) for step in steps)
    if d == 0:
        assert len(steps) == n


@pytest.mark.parametrize("d", [0, 1, 2])
def test_lazy_buckets_when_one_side_starts_far_below_the_top(d):
    steps = _matches_reference(_lopsided(12), d)
    assert steps[0].degrees_before[:2] == (12, 2)


@pytest.mark.parametrize("g", [generate("gnp", 20, seed=4, p=0.3), generate("complete", 4), c6()])
def test_lazy_buckets_with_no_bucket_above_d(g):
    top = max(map(len, g.left_adj + g.right_adj))
    for d in (top, top + 3):
        steps = _matches_reference(g, d)
        assert all(step.kind == LOW_DEGREE_EDGE_DELETION for step in steps)


@pytest.mark.parametrize("d", [1, 2])
def test_low_degree_steps_move_a_max_pointer_several_levels(d):
    steps = _matches_reference(_hub_and_block(6, 3), d)
    first = _first_pair_step(steps)
    assert steps[0].degrees_before[0] == 6 and steps[first].degrees_before[0] == 3


@pytest.mark.parametrize("d", [1, 2])
def test_a_max_bucket_member_drops_several_degrees(d):
    steps = _matches_reference(_sinking_member(), d)
    first = _first_pair_step(steps)
    assert first == 3 and steps[first].degrees_before[0] == 6
    assert (steps[first].a, steps[first + 1].degrees_before[0]) == (1, 3)


def _count_drained_entries(monkeypatch) -> Counter:
    """Count, per working graph and side, the entries its drains visit.
    Keyed by the graph itself, which keeps it alive: an id could be reused
    by a later graph once the first is freed."""
    visited = Counter()
    drain = extract._WorkingGraph._drain

    def counting_drain(self, s, x):
        visited[self, s] += len(self.queue[s][x])
        return drain(self, s, x)

    monkeypatch.setattr(extract._WorkingGraph, "_drain", counting_drain)
    return visited


@pytest.mark.parametrize("n, p, d", [(400, 0.5, 0), (1600, 10 / 1600, 2)])
def test_drains_visit_at_most_n_plus_twice_the_edges_per_side(monkeypatch, n, p, d):
    """Every registration is made at the vertex's degree at the time, so each
    re-registration is paid for by a degree drop: the drains of a whole
    peel and of its replay visit O(n + m) entries."""
    visited = _count_drained_entries(monkeypatch)
    g = generate("gnp", n, seed=1, p=p)
    _, tr = find_degenerate(g, d)
    assert check_trace(g, tr, d)
    assert len(visited) == 4
    assert all(count <= n + 2 * g.edge_count for count in visited.values())


def test_check_trace_builds_no_vertex_ref(monkeypatch):
    """The replay compares a recorded VertexRef's side and index with the
    (side rank, index) the rule yields, so a matching check_trace builds
    none, though the trace holds hundreds of low-degree steps."""
    g = generate("gnp", 400, seed=1, p=0.025)
    _, tr = find_degenerate(g, 2)
    built = []
    init = VertexRef.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(VertexRef, "__init__", counting_init)
    assert check_trace(g, tr, 2)
    assert built == []
    # reading the steps builds one VertexRef per low-degree step
    assert sum(step.kind == LOW_DEGREE_EDGE_DELETION for step in tr.steps) == len(built) > 300


def test_steps_and_vertex_refs_have_no_instance_dict():
    """PeelStep and VertexRef are slotted: reading a trace builds one per
    step and per low-degree vertex, and a slotted instance is smaller and
    quicker to build."""
    _, tr = find_degenerate(generate("gnp", 40, seed=1, p=0.1), 2)
    low = next(step for step in tr.steps if step.v is not None)
    pair = next(step for step in tr.steps if step.v is None)
    for obj in (low, pair, low.v):
        assert not hasattr(obj, "__dict__")


def test_peel_step_keeps_its_record_contract():
    """PeelStep is a frozen dataclass record: fields, construction, replace,
    equality, hash, repr and immutability (its slots are checked above)."""
    assert [(f.name, f.default) for f in fields(PeelStep)] == [
        ("kind", MISSING),
        ("degrees_before", MISSING),
        ("a", None),
        ("b", None),
        ("v", None),
    ]
    v = VertexRef(Side.RIGHT, 3)
    low = PeelStep(LOW_DEGREE_EDGE_DELETION, (4, 5, 2, None), v=v)
    assert low == PeelStep(LOW_DEGREE_EDGE_DELETION, (4, 5, 2, None), None, None, v)
    pair = PeelStep(degrees_before=(4, 5, 4, 5), kind=PAIR_CASE1, a=1, b=2)
    assert (pair.kind, pair.degrees_before, pair.a, pair.b, pair.v) == (
        PAIR_CASE1, (4, 5, 4, 5), 1, 2, None
    )
    assert replace(pair, b=7) == PeelStep(PAIR_CASE1, (4, 5, 4, 5), 1, 7)
    assert pair != low and pair != replace(pair, kind=PAIR_CASE2)
    assert hash(pair) == hash((PAIR_CASE1, (4, 5, 4, 5), 1, 2, None))
    assert repr(low) == (
        "PeelStep(kind='low_degree_edge_deletion', degrees_before=(4, 5, 2, None), "
        "a=None, b=None, v=VertexRef(side=<Side.RIGHT: 'R'>, index=3))"
    )
    with pytest.raises(FrozenInstanceError):
        pair.a = 3
    with pytest.raises(TypeError):
        PeelStep(PAIR_CASE1)


def test_the_peel_builds_each_step_through_its_constructor(monkeypatch):
    """The peel records its steps as columns and builds no PeelStep; reading
    the steps builds each one through PeelStep.__init__, so a counting
    constructor, as in the tests of check_trace above, sees them all."""
    g = generate("gnp", 400, seed=1, p=0.025)
    built = []
    init = PeelStep.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PeelStep, "__init__", counting_init)
    steps = _peel_result(g, 2)[2]
    assert built == []
    steps = list(steps)
    assert sum(step.kind == LOW_DEGREE_EDGE_DELETION for step in steps) > 300
    assert list(map(id, built)) == list(map(id, steps))


def test_check_trace_wants_exactly_a_vertex_ref():
    """A recorded v matches only as a VertexRef of the replayed side and index."""
    g = generate("crown", 4)
    _, tr = find_degenerate(g, 2)
    k = next(k for k, step in enumerate(tr.steps) if step.v is not None)
    v = tr.steps[k].v
    other = Side.RIGHT if v.side is Side.LEFT else Side.LEFT

    class Ref(VertexRef):
        pass

    forgeries = [
        None,
        (v.side, v.index),
        Ref(v.side, v.index),
        VertexRef(other, v.index),
        VertexRef(v.side, v.index + 1),
        VertexRef(v.side.value, v.index),
    ]
    for forged_v in forgeries:
        steps = tr.steps[:k] + (replace(tr.steps[k], v=forged_v),) + tr.steps[k + 1 :]
        with pytest.raises(TraceMismatch, match=f"step {k}: recorded"):
            check_trace(g, replace(tr, steps=steps), 2)


# -- pair selection on the input's sorted rows ------------------------------------


def _first_step(steps) -> tuple:
    return steps[0].kind, steps[0].a, steps[0].b


@pytest.mark.parametrize("d", [0, 1, 2])
def test_a_right_max_bucket_larger_than_the_left_rows(d):
    """Five rights of degree 2 against lefts of degree 3: no left row can
    cover the bucket, so left 0's covering test misses, and it is taken
    with its lowest missed right, 3."""
    edges = [(i, j) for i in (0, 1) for j in range(3)] + [(i, j) for i in (2, 3) for j in (3, 4)]
    steps = _matches_reference(build_graph(6, 6, edges), d)
    if d == 0:
        assert _first_step(steps) == (PAIR_CASE1, 0, 3)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_a_missed_right_above_every_entry_of_the_row(d):
    """Left 0's row (0, 1, 2) misses right 5 of the max bucket {1, 2, 5},
    which a binary search places past the row's end."""
    g = build_graph(6, 6, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 5), (2, 5)])
    steps = _matches_reference(g, d)
    if d == 0:
        assert _first_step(steps) == (PAIR_CASE1, 0, 5)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_a_partner_scan_past_many_adjacent_rights(d):
    """Left 0 sees rights 0..k-1 of the max bucket {0..k} and right k + 1
    outside it, so its partner search passes k neighbours before right k."""
    k = 10
    edges = [(0, j) for j in range(k)] + [(0, k + 1)]
    edges += [(1, j) for j in range(k + 1)] + [(2, k)]
    steps = _matches_reference(build_graph(k + 2, k + 2, edges), d)
    if d == 0:
        assert _first_step(steps) == (PAIR_CASE1, 0, k)


def _near_complete(n: int, missing) -> BipartiteGraph:
    return build_graph(n, n, [(i, j) for i in range(n) for j in range(n) if (i, j) not in missing])


@st.composite
def near_complete_graphs(draw):
    """K_{n,n} less a few edges, where most pair steps are case 2 and the
    covering memo carries over many steps."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return _near_complete(n, set(draw(st.lists(pairs, max_size=4))))


@settings(max_examples=150, deadline=None)
@given(near_complete_graphs(), st.integers(0, 2))
def test_covering_memo_matches_reference_on_near_complete_graphs(g, d):
    _matches_reference(g, d)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_a_right_drain_outside_the_snapshot_empties_the_memo(d):
    """K_{4,4} beside K_{3,3}: the first scan finds lefts 0..3 covering the
    right bucket {0..3} and takes the case-2 pair (0, 0).  The next right
    bucket {1..6} holds rights 4..6, which lefts 1..3 miss, so left 1 is
    taken with right 4; a memo kept past that drain would pass left 1."""
    edges = [(i, j) for i in range(4) for j in range(4)]
    edges += [(i, j) for i in range(4, 7) for j in range(4, 7)]
    steps = _matches_reference(build_graph(7, 7, edges), d)
    assert [(step.kind, step.a, step.b) for step in steps[:2]] == [
        (PAIR_CASE2, 0, 0),
        (PAIR_CASE1, 1, 4),
    ]


def test_a_covering_test_after_the_bucket_shrank_takes_a_new_snapshot():
    """Left 2 covers the right bucket {1, 2, 4} and left 5 misses right 1,
    so the case-1 pair (5, 1) drops right 2 out of the bucket.  Lefts 1 and
    3 then cover what is left, {4}, though they miss right 2, so the
    snapshot shrinks to {4} as left 1 joins the memo.  After the case-2
    pair (1, 4) the right drain brings right 2 back and left 3 is taken
    with it; a snapshot kept at {1, 2, 4} would pass left 3."""
    edges = [(0, 1), (0, 2), (1, 4), (1, 5), (2, 1), (2, 2), (2, 4)]
    edges += [(3, 4), (3, 5), (4, 1), (5, 0), (5, 2), (5, 3)]
    steps = _matches_reference(build_graph(6, 6, edges), 0)
    assert [(step.kind, step.a, step.b) for step in steps] == [
        (PAIR_CASE1, 5, 1),
        (PAIR_CASE2, 1, 4),
        (PAIR_CASE1, 3, 2),
    ]


def _searches(monkeypatch) -> Counter:
    """Count, per working graph and left vertex, the covering tests that
    search the vertex's row: those the memo does not answer."""
    searched = Counter()
    covers = extract._WorkingGraph._covers

    def counting_covers(self, i, cand_b):
        if i not in self.covered:
            searched[self, i] += 1
        return covers(self, i, cand_b)

    monkeypatch.setattr(extract._WorkingGraph, "_covers", counting_covers)
    return searched


@pytest.mark.parametrize("d", [0, 1, 2])
def test_complete_rows_are_searched_once_per_peel(monkeypatch, d):
    """On K_{8,8} every drain after a case-2 step keeps to the survivors of
    the last right bucket, so each left row is searched at the first step
    and the memo answers every later covering test."""
    searched = _searches(monkeypatch)
    steps = _matches_reference(generate("complete", 8), d)
    assert sum(step.kind == PAIR_CASE2 for step in steps) > 1
    # once for the peel, once for its replay
    assert len({work for work, _ in searched}) == 2
    assert len(searched) == 16 and set(searched.values()) == {1}


@pytest.mark.parametrize("d", [0, 1, 2])
def test_rows_less_an_edge_are_searched_once_per_peel(monkeypatch, d):
    """K_{8,8} less the edge (7, 7): left 7 and right 7 stay a degree below
    the max buckets, so no drain brings right 7 into the right bucket while
    a pair step remains; lefts 0..6 are searched once each, left 7 never."""
    searched = _searches(monkeypatch)
    steps = _matches_reference(_near_complete(8, {(7, 7)}), d)
    assert all(step.kind in (PAIR_CASE2, LOW_DEGREE_EDGE_DELETION) for step in steps)
    # once for the peel, once for its replay
    assert sorted(i for _, i in searched) == sorted(list(range(7)) * 2)
    assert set(searched.values()) == {1}


@pytest.mark.parametrize("d", [0, 1, 2])
def test_crown_memo_stays_empty(monkeypatch, d):
    """The crown's right max bucket always outnumbers its left degree, so
    every covering test misses and no vertex is remembered."""
    sizes = []
    select = extract._WorkingGraph.select_pair

    def recording_select(self):
        pair = select(self)
        sizes.append(len(self.covered))
        return pair

    monkeypatch.setattr(extract._WorkingGraph, "select_pair", recording_select)
    steps = _matches_reference(generate("crown", 8), d)
    assert all(step.kind != PAIR_CASE2 for step in steps)
    assert sizes and set(sizes) == {0}


def test_dense_gnp_step_counts_are_unchanged():
    """gnp 400, p 0.5: the memo leaves every step as it was, down to the
    count of each kind."""
    g = generate("gnp", 400, seed=1, p=0.5)
    expected = {
        0: {PAIR_CASE1: 344, PAIR_CASE2: 47},
        2: {PAIR_CASE1: 333, PAIR_CASE2: 46, LOW_DEGREE_EDGE_DELETION: 41},
    }
    for d, counts in expected.items():
        _, tr = find_degenerate(g, d)
        assert check_trace(g, tr, d)
        assert Counter(step.kind for step in tr.steps) == counts


def _traced_peak(f, *args) -> int:
    """Peak bytes allocated while f(*args) runs, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [0, 2])
def test_working_graph_builds_no_neighbour_sets(d):
    """The engine's own state is O(n + max degree) lists, not a copy of the
    edges: about 0.1 MB on gnp 400, p 0.5, where per-row sets took 3.3 MB."""
    peak = _traced_peak(extract._WorkingGraph, generate("gnp", 400, seed=1, p=0.5), d)
    assert peak < 512 * 1024, f"peak {peak} bytes"


@pytest.mark.parametrize("d", [0, 2])
def test_complete_peel_builds_no_row_sets(d):
    """The peel of K_{200,200} holds two sets of at most 200 vertices for
    its memo, about 0.1 MB at peak, where a set per left row took 1.8 MB."""
    peak = _traced_peak(_extract, generate("complete", 200), d, "find_degenerate")
    assert peak < 512 * 1024, f"peak {peak} bytes"


@pytest.mark.parametrize(
    "g",
    [
        generate("complete", 60),
        generate("gnp", 400, seed=1, p=0.5),
        generate("complete", 200),
        _near_complete(200, {(199, 199)}),
    ],
)
def test_binary_search_probes_stay_linear_in_the_edges(monkeypatch, g):
    """Every binary search of a peel, covering tests and partner searches
    alike, is counted.  A left vertex pays a full covering test at most once
    per memo lifetime, at most its live degree in probes, and a lifetime
    ends only at a right drain that brings in a vertex outside ``cover_of``.
    A failed covering test and a partner search come once per case-1 step,
    for the left vertex a that the step removes, and each finds at most a's
    live degree of members before its one miss.  On K_{n,n} and on K_{n,n}
    less an edge no step is case 1 and no drain ends the memo, so a peel
    makes at most m + 2 * steps probes; gnp 400, p 0.5, whose steps are
    mostly case 1, stays within that too.  Without the memo K_{n,n} takes
    about n^3 / 3 probes, and rows that became sets at twice their length
    took 2m on K_{n,n} less an edge."""
    probes = []
    bisect_left = extract.bisect_left

    def counting_bisect_left(row, j):
        probes.append(j)
        return bisect_left(row, j)

    monkeypatch.setattr(extract, "bisect_left", counting_bisect_left)
    for d in (0, 2):
        probes.clear()
        steps = _peel_result(g, d)[2]
        assert len(probes) <= g.edge_count + 2 * len(steps)
