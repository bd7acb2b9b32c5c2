"""Exhaustive-search oracles and certificate checkers.

The oracles are themselves cross-checked here against a from-first-principles
brute force (enumerate every subset pair, test the defining property) on
graphs small enough for that to be instant.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biholes.bigraph import BipartiteGraph, Side, SplitMix64, VertexRef, build_graph, generate
from biholes.errors import IndexOutOfRange, InstanceTooLarge, NegativeD, UnbalancedGraph
from biholes.oracle import (
    OracleLimits,
    StuckCore,
    check_elimination_order,
    degeneracy_certificate,
    is_bihole,
    max_bihole_exact,
    max_biclique_exact,
    max_degenerate_exact,
    _best_balanced,
)
from reference_oracle import (
    reference_best_balanced,
    reference_max_bihole,
    reference_max_biclique,
)
from reference_peel import reference_certificate


def c6() -> BipartiteGraph:
    return generate("cycle", 3)


def all_balanced_graphs(n):
    cells = list(itertools.product(range(n), range(n)))
    for bits in range(1 << len(cells)):
        yield build_graph(n, n, [cells[i] for i in range(len(cells)) if bits >> i & 1])


@st.composite
def balanced_graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    return build_graph(n, n, edges)


# -- reference definitions, written independently of the implementation --------


def brute_max_bihole(g):
    best = 0
    lefts = range(g.left_count)
    rights = range(g.right_count)
    for t in range(1, min(g.left_count, g.right_count) + 1):
        for ls in itertools.combinations(lefts, t):
            for rs in itertools.combinations(rights, t):
                if all(not g.has_edge(l, r) for l in ls for r in rs):
                    best = max(best, t)
    return best


def brute_max_biclique(g):
    best = 0
    for t in range(1, min(g.left_count, g.right_count) + 1):
        for ls in itertools.combinations(range(g.left_count), t):
            for rs in itertools.combinations(range(g.right_count), t):
                if all(g.has_edge(l, r) for l in ls for r in rs):
                    best = max(best, t)
    return best


def subset_is_degenerate(g, ls, rs, d):
    """Every non-empty sub-subset must contain a vertex of inside-degree <= d."""
    verts = [(Side.LEFT, l) for l in ls] + [(Side.RIGHT, r) for r in rs]
    for size in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            lsub = {i for s, i in sub if s is Side.LEFT}
            rsub = {i for s, i in sub if s is Side.RIGHT}
            ok = False
            for s, i in sub:
                if s is Side.LEFT:
                    deg = sum(1 for r in g.left_adj[i] if r in rsub)
                else:
                    deg = sum(1 for l in g.right_adj[i] if l in lsub)
                if deg <= d:
                    ok = True
                    break
            if not ok:
                return False
    return True


def brute_max_degenerate(g, d):
    best = 0
    for t in range(1, min(g.left_count, g.right_count) + 1):
        for ls in itertools.combinations(range(g.left_count), t):
            for rs in itertools.combinations(range(g.right_count), t):
                if subset_is_degenerate(g, ls, rs, d):
                    best = max(best, t)
    return best


# -- is_bihole ------------------------------------------------------------------


def test_is_bihole_basic():
    g = c6()
    assert is_bihole(g, [2], [1])
    assert not is_bihole(g, [0], [0])  # that pair is an edge
    assert not is_bihole(g, [0, 1], [2])  # unbalanced sets
    assert is_bihole(g, [], [])
    assert is_bihole(g, [2, 2], [1])  # duplicates collapse


def test_is_bihole_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        is_bihole(c6(), [3], [0])
    with pytest.raises(IndexOutOfRange):
        is_bihole(c6(), [0], [-1])


# -- degeneracy certificates ------------------------------------------------------


def test_certificate_k33_full():
    g = generate("complete", 3)
    order = degeneracy_certificate(g, [0, 1, 2], [0, 1, 2], 3)
    assert order == [
        VertexRef(Side.LEFT, 0),
        VertexRef(Side.RIGHT, 0),
        VertexRef(Side.LEFT, 1),
        VertexRef(Side.RIGHT, 1),
        VertexRef(Side.LEFT, 2),
        VertexRef(Side.RIGHT, 2),
    ]
    assert check_elimination_order(g, [0, 1, 2], [0, 1, 2], 3, order)


def test_certificate_stuck_core():
    g = generate("complete", 3)
    core = degeneracy_certificate(g, [0, 1], [0, 1], 1)
    assert core == StuckCore((0, 1), (0, 1))
    # the whole six-cycle is 2-regular: stuck at d=1, peelable at d=2
    assert isinstance(degeneracy_certificate(c6(), [0, 1, 2], [0, 1, 2], 1), StuckCore)
    order = degeneracy_certificate(c6(), [0, 1, 2], [0, 1, 2], 2)
    assert isinstance(order, list)
    assert check_elimination_order(c6(), [0, 1, 2], [0, 1, 2], 2, order)


def test_certificate_empty_sets():
    assert degeneracy_certificate(c6(), [], [], 0) == []
    assert check_elimination_order(c6(), [], [], 0, [])


def test_check_elimination_order_rejects_bad_orders():
    g = generate("complete", 3)
    sets = ([0, 1, 2], [0, 1, 2])
    good = degeneracy_certificate(g, *sets, 3)
    assert check_elimination_order(g, *sets, 3, good)
    # cover violations
    assert not check_elimination_order(g, *sets, 3, good[:-1])
    assert not check_elimination_order(g, *sets, 3, good + [good[0]])
    assert not check_elimination_order(g, *sets, 3, good[:-1] + [VertexRef(Side.LEFT, 0)])
    # degree violation: the first removal sees the full K_{3,3}
    assert not check_elimination_order(g, *sets, 2, good)
    bad_first = [VertexRef(Side.RIGHT, 2)] + [v for v in good if v != VertexRef(Side.RIGHT, 2)]
    assert check_elimination_order(g, *sets, 3, bad_first)
    assert not check_elimination_order(g, *sets, 1, bad_first)


@settings(max_examples=80)
@given(balanced_graphs(max_n=5), st.integers(0, 3))
def test_certificate_round_trips_through_checker(g, d):
    n = g.left_count
    result = degeneracy_certificate(g, range(n), range(n), d)
    if isinstance(result, StuckCore):
        # every vertex of the core really has degree > d inside it
        lset, rset = set(result.left), set(result.right)
        for l in result.left:
            assert sum(1 for r in g.left_adj[l] if r in rset) > d
        for r in result.right:
            assert sum(1 for l in g.right_adj[r] if l in lset) > d
    else:
        assert check_elimination_order(g, range(n), range(n), d, result)


@settings(max_examples=150)
@given(
    st.integers(1, 14),
    st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 3),
    st.data(),
)
def test_certificate_matches_rescan_reference(n, p, seed, d, data):
    g = generate("gnp", n, seed=seed, p=p)
    lefts = data.draw(st.sets(st.integers(0, n - 1)))
    rights = data.draw(st.sets(st.integers(0, n - 1)))
    assert degeneracy_certificate(g, lefts, rights, d) == reference_certificate(
        g, lefts, rights, d
    )


# -- exhaustive optima -------------------------------------------------------------


def test_max_bihole_anchors():
    assert max_bihole_exact(c6()) == 1
    assert max_bihole_exact(generate("complete", 3)) == 0
    assert max_bihole_exact(generate("matching", 10)) == 5
    assert max_bihole_exact(generate("edgeless", 5)) == 5
    assert max_bihole_exact(generate("crown", 4)) == 1
    assert max_bihole_exact(build_graph(0, 0, [])) == 0


def test_max_biclique_anchors():
    assert max_biclique_exact(generate("complete", 4)) == 4
    assert max_biclique_exact(generate("edgeless", 5)) == 0
    assert max_biclique_exact(c6()) == 1
    assert max_biclique_exact(generate("matching", 6)) == 1


def test_max_degenerate_anchors():
    assert max_degenerate_exact(generate("complete", 2), 1) == 1
    assert max_degenerate_exact(generate("complete", 3), 2) == 2
    assert max_degenerate_exact(generate("complete", 3), 3) == 3
    assert max_degenerate_exact(c6(), 0) == 1
    assert max_degenerate_exact(c6(), 1) == 2
    assert max_degenerate_exact(c6(), 2) == 3


def test_oracle_preconditions():
    with pytest.raises(UnbalancedGraph):
        max_bihole_exact(build_graph(2, 3, []))
    with pytest.raises(NegativeD):
        max_degenerate_exact(c6(), -1)
    with pytest.raises(ValueError):
        OracleLimits(max_side_bihole=0)
    with pytest.raises(ValueError):
        OracleLimits(max_side_degenerate=-2)


def test_oracle_size_limits():
    small = OracleLimits(max_side_bihole=4, max_side_degenerate=2)
    g5 = generate("edgeless", 5)
    with pytest.raises(InstanceTooLarge):
        max_bihole_exact(g5, small)
    with pytest.raises(InstanceTooLarge):
        max_biclique_exact(g5, small)
    with pytest.raises(InstanceTooLarge):
        max_degenerate_exact(generate("edgeless", 3), 1, small)
    # raising the limit admits the same instance
    assert max_bihole_exact(g5, OracleLimits(max_side_bihole=5)) == 5
    with pytest.raises(InstanceTooLarge):
        max_degenerate_exact(generate("edgeless", 9), 1)


# -- cross-checks against the reference definitions ----------------------------------


def test_bihole_matches_brute_force_exhaustively():
    for n in (1, 2):
        for g in all_balanced_graphs(n):
            assert max_bihole_exact(g) == brute_max_bihole(g)
            assert max_biclique_exact(g) == brute_max_biclique(g)
    # sample of the 512 graphs on 3+3 vertices, every 7th
    for i, g in enumerate(all_balanced_graphs(3)):
        if i % 7 == 0:
            assert max_bihole_exact(g) == brute_max_bihole(g)
            assert max_biclique_exact(g) == brute_max_biclique(g)


def test_degenerate_matches_subset_definition():
    for g in all_balanced_graphs(2):
        for d in (0, 1, 2):
            assert max_degenerate_exact(g, d) == brute_max_degenerate(g, d)
    for i, g in enumerate(all_balanced_graphs(3)):
        if i % 31 == 0:
            for d in (0, 1, 2):
                assert max_degenerate_exact(g, d) == brute_max_degenerate(g, d)


@settings(max_examples=60)
@given(balanced_graphs(max_n=6))
def test_degenerate_at_zero_equals_bihole(g):
    assert max_degenerate_exact(g, 0) == max_bihole_exact(g)


@settings(max_examples=60)
@given(balanced_graphs(max_n=7))
def test_complement_duality(g):
    assert max_bihole_exact(g) == max_biclique_exact(g.complement())


@settings(max_examples=40)
@given(balanced_graphs(max_n=6), st.integers(0, 3))
def test_degenerate_monotone_in_d(g, d):
    assert max_degenerate_exact(g, d) <= max_degenerate_exact(g, d + 1)


# -- size-targeted search against the plain split-half reference -----------------------


@st.composite
def mask_lists(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))


@settings(max_examples=300)
@given(mask_lists())
def test_best_balanced_matches_split_half_reference(case):
    n, masks = case
    full = (1 << n) - 1
    complements = [full & ~m for m in masks]
    assert _best_balanced(masks, n) == reference_best_balanced(masks, n)
    assert _best_balanced(complements, n) == reference_best_balanced(complements, n)


def test_bihole_matches_reference_on_seeded_gnp_at_full_size():
    rng = SplitMix64(2020)
    for n in (20, 21, 22):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = generate("gnp", n, seed=rng.next_u64(), p=p)
            assert max_bihole_exact(g) == reference_max_bihole(g), (n, p)


def _named_optima(model, n):
    """(bi-hole, biclique) optima of the structured models, in closed form."""
    if model == "complete":
        return 0, n
    if model == "edgeless":
        return n, 0
    if model == "matching":
        return n // 2, 1
    if model == "crown":  # complete minus a perfect matching
        return (1, 0) if n == 1 else (1, n // 2)
    assert model == "cycle"  # the 2n-cycle; n = 2 is K_{2,2}
    return (n - 1) // 2, 2 if n == 2 else 1


@pytest.mark.parametrize("model", ["complete", "crown", "cycle", "matching", "edgeless"])
def test_named_models_match_reference_and_closed_form(model):
    for n in range(2 if model == "cycle" else 1, 23):
        g = generate(model, n)
        expected = _named_optima(model, n)
        assert (max_bihole_exact(g), max_biclique_exact(g)) == expected, (model, n)
        if n <= 14:
            assert (reference_max_bihole(g), reference_max_biclique(g)) == expected, (model, n)


def test_two_block_instance():
    """11 left vertices miss rights 0-14, the other 11 miss rights 7-21: each
    block alone is an 11 x 11 bi-hole, and any mix of the blocks has at most
    8 common non-neighbours.  The plain split-half loop has to grind through
    the mixes; the size-targeted search must not be slower."""
    edges = [(l, r) for l in range(11) for r in range(15, 22)]
    edges += [(l, r) for l in range(11, 22) for r in range(7)]
    g = build_graph(22, 22, edges)
    start = time.perf_counter()
    value = max_bihole_exact(g)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    reference = reference_max_bihole(g)
    reference_elapsed = time.perf_counter() - start
    assert value == reference == 11
    assert elapsed <= reference_elapsed
