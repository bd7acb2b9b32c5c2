"""Bound computations: anchors, exact-rational invariants, and adversarial
degree sequences where floating point gets the floor wrong."""

import decimal
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biholes import bounds
from biholes.bigraph import BipartiteGraph, build_graph, generate
from biholes.bounds import (
    BoundReport,
    bound_report,
    caro_wei_sum,
    decimal_string,
    rational_json_items,
)
from biholes.errors import NegativeD, UnbalancedGraph
import reference_bounds
from reference_bounds import caro_wei_sum as reference_caro_wei_sum
from reference_bounds import potential
from reference_bounds import strengthened_bound as reference_strengthened_bound
from reference_output import rational_to_json


def c6() -> BipartiteGraph:
    return generate("cycle", 3)


@st.composite
def balanced_graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    return build_graph(n, n, edges)


# -- the reference potential, which the Fraction loops are built on ------


def test_potential_values():
    assert potential(0) == 1
    assert potential(2) == Fraction(1, 3)
    assert potential(2, 1) == Fraction(2, 3)
    assert potential(3, 2) == Fraction(3, 4)
    assert isinstance(potential(5), Fraction)


def test_potential_caps_at_one():
    for d in range(4):
        for x in range(d + 1):
            assert potential(x, d) == 1
        assert potential(d + 1, d) < 1


# -- the three exact bounds ------------------------------------------------


def test_caro_wei_sum_anchors():
    assert caro_wei_sum(c6(), 0) == 2
    assert caro_wei_sum(generate("complete", 2), 1) == Fraction(8, 3)
    assert caro_wei_sum(generate("complete", 3), 2) == Fraction(9, 2)
    assert caro_wei_sum(build_graph(0, 0, [])) == 0
    # works on unbalanced graphs too: one degree-2 center, two degree-1 leaves
    assert caro_wei_sum(build_graph(1, 2, [(0, 0), (0, 1)])) == Fraction(4, 3)


def test_floor_bound_anchors():
    assert bound_report(c6(), 0).floor_bound == 1
    assert bound_report(generate("matching", 10), 0).floor_bound == 5
    assert bound_report(generate("edgeless", 7), 0).floor_bound == 7
    assert bound_report(generate("complete", 2), 1).floor_bound == 1
    assert bound_report(generate("complete", 3), 2).floor_bound == 2
    assert bound_report(build_graph(0, 0, [])).floor_bound == 0
    with pytest.raises(UnbalancedGraph):
        bound_report(build_graph(2, 3, []), 0)


def test_strengthened_bound_anchors():
    assert bound_report(generate("complete", 1), 0).strengthened == 0
    assert bound_report(c6(), 0).strengthened == Fraction(1, 3)
    assert bound_report(generate("edgeless", 5), 0).strengthened == 5
    assert bound_report(generate("complete", 2), 1).strengthened == 1
    assert bound_report(generate("complete", 3), 2).strengthened == 2
    assert bound_report(build_graph(0, 0, [])).strengthened == 0
    with pytest.raises(UnbalancedGraph):
        bound_report(build_graph(1, 2, []), 0)


def test_average_degree_bound_anchors():
    assert bound_report(c6()).average_degree_bound == -1
    assert bound_report(generate("edgeless", 6)).average_degree_bound == 4
    assert bound_report(generate("complete", 5)).average_degree_bound == Fraction(5, 6) - 2
    assert bound_report(generate("matching", 10)).average_degree_bound == 3
    assert bound_report(build_graph(0, 0, [])).average_degree_bound == 0


# -- log reference ----------------------------------------------------------


def test_log_reference_matches_float_log():
    val = bound_report(c6(), 0, Fraction(1, 2)).log_reference
    assert math.isclose(float(val), 0.25 * 3 * math.log(2) / 2, rel_tol=1e-20)
    k44 = generate("complete", 4)
    val = bound_report(k44, 0, Fraction(1, 4)).log_reference
    assert math.isclose(float(val), 0.125 * 4 * math.log(4) / 4, rel_tol=1e-20)


def test_log_reference_needs_degree_above_one():
    assert bound_report(generate("matching", 4), 0, Fraction(1, 2)).log_reference is None
    assert bound_report(generate("edgeless", 4), 0, Fraction(1, 2)).log_reference is None


def test_log_reference_eps_range():
    for eps in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            bound_report(c6(), 0, eps)


# -- rendering ---------------------------------------------------------------


def test_decimal_string_twelve_significant_digits():
    assert decimal_string(Fraction(1, 3)) == "0.333333333333"
    assert decimal_string(Fraction(2)) == "2"
    assert decimal_string(Fraction(-6, 11)) == "-0.545454545455"
    assert decimal_string(Fraction(1, 3), digits=4) == "0.3333"


def test_decimal_rendering_ignores_the_callers_context():
    g = generate("gnp", 30, seed=5, p=0.3)
    values = [Fraction(2, 3), Fraction(-6, 11), Fraction(10**20, 3), Fraction(1, 3 * 10**9)]
    default = [decimal_string(x) for x in values], bound_report(g).log_reference
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.capitals = 3, decimal.ROUND_DOWN, 0
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        hostile = [decimal_string(x) for x in values], bound_report(g).log_reference
    assert decimal_string(Fraction(2, 3)) == "0.666666666667"
    assert hostile == default


def test_rational_json_texts_of_minus_a_third():
    assert rational_json_items([-1, -2], 3) == (
        '{"num": "-1", "den": "3", "decimal": "-0.333333333333"}, '
        '{"num": "-2", "den": "3", "decimal": "-0.666666666667"}'
    )


@settings(max_examples=200, deadline=None)
@given(num=st.integers(-(2**400), 2**400), den=st.integers(1, 2**400))
@example(num=-1, den=3)
@example(num=0, den=1)
@example(num=-6, den=4)
def test_rational_json_text_is_the_dumped_dict(num, den):
    """Each value is written reduced, over the denominator they share."""
    x = Fraction(num, den)
    text = rational_json_items([num], den)
    assert json.loads(text) == rational_to_json(x)
    assert text == json.dumps(rational_to_json(x))
    nums = [num, num + 1, num]
    texts = [json.dumps(rational_to_json(Fraction(v, den))) for v in nums]
    assert rational_json_items(nums, den) == ", ".join(texts)


def test_bound_report_c6():
    rep = bound_report(c6(), 0)
    assert rep.n == 3 and rep.d == 0
    assert rep.floor_bound == 1
    assert rep.strengthened == Fraction(1, 3)
    assert rep.ceil_strengthened == 1
    assert rep.average_degree_bound == -1
    # average degree 2, so the log reference is defined; n = 3 >= (3/2)*2
    assert rep.log_size_hypothesis_met is True
    js = json.loads(rep.json_text())
    assert js["floor_bound"] == 1
    assert js["strengthened"] == {"num": "1", "den": "3", "decimal": "0.333333333333"}
    assert js["log_reference"]["size_hypothesis_met"] is True


def test_bound_report_size_hypothesis_fails_on_dense():
    rep = bound_report(generate("complete", 4), 0)
    assert rep.log_size_hypothesis_met is False


def test_bound_report_omits_log_when_sparse():
    rep = bound_report(generate("matching", 4), 0)
    assert rep.log_reference is None
    assert json.loads(rep.json_text())["log_reference"] is None


def test_bound_report_rejects_negative_d():
    with pytest.raises(NegativeD):
        bound_report(c6(), -1)


def test_bound_report_checks_eps_without_log_reference():
    # average degree 1: no log reference, but a bad eps is still an error
    with pytest.raises(ValueError, match="eps"):
        bound_report(generate("matching", 4), 0, Fraction(5))


def test_bound_report_sums_the_potential_once(monkeypatch):
    calls = []

    def counted(g, d=0):
        calls.append(d)
        return caro_wei_sum(g, d)

    monkeypatch.setattr(bounds, "caro_wei_sum", counted)
    g = generate("gnp", 12, seed=3, p=0.4)
    for d in (0, 2):
        calls.clear()
        bound_report(g, d)
        assert calls == [d]


def test_bound_report_empty_graph():
    rep = bound_report(build_graph(0, 0, []), 0)
    assert rep.floor_bound == 0
    assert rep.strengthened == 0
    assert rep.average_degree_bound == 0


# -- invariants, property-based ------------------------------------------------


@settings(max_examples=150)
@given(balanced_graphs(), st.integers(0, 4))
def test_rounding_inequality(g, d):
    rep = bound_report(g, d)
    assert math.ceil(rep.strengthened) >= rep.floor_bound


@settings(max_examples=150)
@given(balanced_graphs())
def test_jensen_relation(g):
    n = g.left_count
    avg = Fraction(g.edge_count, n)
    assert caro_wei_sum(g, 0) / 2 >= Fraction(n) / (avg + 1)
    rep = bound_report(g, 0)
    assert rep.floor_bound >= rep.average_degree_bound


@settings(max_examples=100)
@given(balanced_graphs())
def test_monotone_in_d(g):
    floors = [bound_report(g, d).floor_bound for d in range(6)]
    assert floors == sorted(floors)
    strongs = [bound_report(g, d).strengthened for d in range(6)]
    assert strongs == sorted(strongs)
    max_deg = max(len(t) for t in g.left_adj + g.right_adj)
    assert bound_report(g, max_deg).floor_bound == g.left_count


@settings(max_examples=200)
@given(balanced_graphs(), st.integers(0, 6))
@example(build_graph(0, 0, []), 0)
@example(generate("edgeless", 3), 2)
@example(generate("complete", 3), 3)
@example(generate("cycle", 4), 6)
def test_integer_sums_match_the_fraction_loop(g, d):
    """The one-denominator sums equal the per-degree Fraction loop, also on
    the empty graph and where no degree exceeds d, so the lcm is 1."""
    total = reference_caro_wei_sum(g, d)
    strengthened = reference_strengthened_bound(g, d)
    assert caro_wei_sum(g, d) == total
    rep = bound_report(g, d)
    assert (rep.floor_bound, rep.strengthened) == (math.floor(total / 2), strengthened)


def test_bound_report_reuses_the_log_across_d():
    bounds._ln.cache_clear()
    g = generate("gnp", 12, seed=3, p=0.4)
    logs = {bound_report(g, d).log_reference for d in (0, 1, 2)}
    info = bounds._ln.cache_info()
    assert len(logs) == 1 and (info.misses, info.hits) == (1, 2)
    assert info.maxsize is not None


def _numeric_types(rep: BoundReport) -> list:
    return [
        type(v)
        for v in (rep.strengthened, rep.average_degree_bound, rep.log_reference, rep.log_reference_eps)
    ]


@settings(max_examples=200, deadline=None)
@given(
    balanced_graphs(max_n=9),
    st.integers(0, 6),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(1, 1000)]),
)
@example(build_graph(0, 0, []), 0, Fraction(1, 2))
@example(generate("edgeless", 3), 2, Fraction(1, 2))
@example(generate("matching", 5), 1, Fraction(1, 3))
@example(generate("cycle", 4), 0, Fraction(9, 10))
@example(generate("complete", 4), 3, Fraction(1, 4))
def test_bound_report_matches_the_fraction_expressions(g, d, eps):
    """The integer forms of the average-degree bound, the log reference and
    its size hypothesis equal the Fraction expressions in the average
    degree, also on the empty graph and at average degree <= 1, where the
    log reference is left out."""
    rep = bound_report(g, d, eps)
    ref = reference_bounds.bound_report(g, d, eps)
    assert rep == ref
    assert _numeric_types(rep) == _numeric_types(ref)
    # neither value depends on d
    at_zero = bound_report(g, 0, eps)
    assert at_zero.average_degree_bound == ref.average_degree_bound
    if ref.log_reference is None:
        assert g.edge_count <= g.left_count
    else:
        assert at_zero.log_reference == ref.log_reference


def test_bound_report_builds_each_fraction_once(monkeypatch):
    """One Fraction each for eps, the potential sum, the strengthened bound,
    the average-degree bound and the log reference, where the Fraction
    expressions build 19 with the log not yet cached."""
    g = generate("gnp", 12, seed=3, p=0.4)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    bounds._ln.cache_clear()
    monkeypatch.setattr(bounds.Fraction, "__new__", staticmethod(counting_new))
    rep = bound_report(g, 1)
    assert rep.log_reference is not None and len(built) <= 5


# -- adversarial exactness ------------------------------------------------------
#
# Two families where recomputing the Caro-Wei sum in binary floating point
# lands on the wrong side of an integer, so the floored bound comes out one
# too small.  The rational arithmetic used by floor_bound must not.


def naive_float_floor(g: BipartiteGraph) -> int:
    """What a float reimplementation of the d = 0 floor bound would return."""
    s = 0.0
    for nbrs in g.left_adj:
        s += 1.0 / (len(nbrs) + 1)
    for nbrs in g.right_adj:
        s += 1.0 / (len(nbrs) + 1)
    return math.floor(s / 2.0)


def disjoint_cycle_blocks(k: int) -> BipartiteGraph:
    """k vertex-disjoint six-cycles: every vertex has degree 2."""
    cycle = list(generate("cycle", 3).edges())
    edges = [(3 * b + i, 3 * b + j) for b in range(k) for i, j in cycle]
    return build_graph(3 * k, 3 * k, edges)


def test_cycle_blocks_float_drift():
    g = disjoint_cycle_blocks(3)
    # 18 vertices of degree 2: the sum is exactly 6, the bound exactly 3.
    assert caro_wei_sum(g, 0) == 6
    assert bound_report(g, 0).floor_bound == 3
    # 18 float additions of 1/3 fall just short of 6 and the halved floor
    # drops to 2.
    assert naive_float_floor(g) == 2


# Stars with prime-related center degrees.  A star whose center has degree
# p - 1 contributes exactly 1/p from the center and 1/2 per leaf.  Choosing
# how many stars of each prime to use via a Chinese-remainder decomposition
# a/P = sum of m_p/p (mod 1) makes the fractional part of the halved sum
# exactly a/P, which is below 2^-40 for every a tested here.  Each block is
# mirrored so the graph is balanced by construction.

STAR_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
STAR_P = 152125131763605  # product of STAR_PRIMES


def star_multiplicities(a: int) -> list[tuple[int, int]]:
    return [(p, (a * pow(STAR_P // p, -1, p)) % p) for p in STAR_PRIMES]


def crt_star_graph(a: int) -> BipartiteGraph:
    edges = []
    lc = rc = 0
    for p, m in star_multiplicities(a):
        for _ in range(m):
            center = lc
            lc += 1
            for _ in range(p - 1):
                edges.append((center, rc))
                rc += 1
    for p, m in star_multiplicities(a):
        for _ in range(m):
            center = rc
            rc += 1
            for _ in range(p - 1):
                edges.append((lc, center))
                lc += 1
    assert lc == rc
    return build_graph(lc, rc, edges)


def test_star_product_matches_primes():
    assert math.prod(STAR_PRIMES) == STAR_P
    assert Fraction(138, STAR_P) < Fraction(1, 2**40)


@pytest.mark.parametrize(
    "a,expected_floor",
    [(1, 1438), (2, 2108), (3, 987), (4, 1520), (5, 1541), (6, 1058), (7, 1419), (8, 1730)],
)
def test_crt_stars_exact_floor(a, expected_floor):
    g = crt_star_graph(a)
    half = caro_wei_sum(g, 0) / 2
    # fractional part is a/P by construction, under a trillionth here
    assert half - math.floor(half) == Fraction(a, STAR_P)
    assert bound_report(g, 0).floor_bound == expected_floor
    # cross-check against the degree multiset the construction promises:
    # per mirrored block of prime p, two centers worth 1/p and 2(p-1)
    # leaves worth 1/2
    planned = sum(
        2 * m * Fraction(1, p) + m * (p - 1) for p, m in star_multiplicities(a)
    )
    assert caro_wei_sum(g, 0) == planned


def test_crt_stars_break_float_arithmetic():
    flipped = [
        a for a in range(1, 9)
        if naive_float_floor(crt_star_graph(a)) != bound_report(crt_star_graph(a), 0).floor_bound
    ]
    # a = 8 happens to survive the rounding noise; the rest do not
    assert flipped == [1, 2, 3, 4, 5, 6, 7]
