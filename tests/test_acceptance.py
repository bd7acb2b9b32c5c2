"""Acceptance gate: one test per published guarantee.

Each test sweeps a fixed graph family, asserts the guarantee with zero
tolerance (everything is integer or rational), enforces its runtime budget,
and prints one CRITERION line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache

from biholes.bigraph import BipartiteGraph, SplitMix64, build_graph, generate
from biholes.bounds import bound_report, caro_wei_sum
from biholes.cli import main
from biholes.extract import check_trace, find_bihole, find_degenerate
from biholes.oracle import (
    check_elimination_order,
    is_bihole,
    max_bihole_exact,
    max_biclique_exact,
    max_degenerate_exact,
)

GNP_NS = tuple(range(4, 17))
GNP_PS = (0.1, 0.3, 0.5, 0.7, 0.9)
GNP_TRIALS = 16  # 13 * 5 * 16 = 1040 graphs
SUITE_SEED = 0x5EED


@lru_cache(maxsize=1)
def small_suite() -> tuple[BipartiteGraph, ...]:
    """Every balanced bipartite graph with side size 1, 2, or 3 (530 total)."""
    graphs = []
    for n in (1, 2, 3):
        cells = list(itertools.product(range(n), range(n)))
        for bits in range(1 << len(cells)):
            edges = [cells[i] for i in range(len(cells)) if bits >> i & 1]
            graphs.append(build_graph(n, n, edges))
    return tuple(graphs)


@lru_cache(maxsize=1)
def gnp_suite() -> tuple[tuple[int, float, int, BipartiteGraph], ...]:
    """1040 seeded random graphs: (n, p, seed, graph) per trial."""
    master = SplitMix64(SUITE_SEED)
    out = []
    for n in GNP_NS:
        for p in GNP_PS:
            for _ in range(GNP_TRIALS):
                seed = master.next_u64()
                out.append((n, p, seed, generate("gnp", n, seed=seed, p=p)))
    return tuple(out)


def report(k: int, elapsed: float, detail: str) -> None:
    print(f"CRITERION {k} PASS ({detail}, {elapsed:.2f}s)")


def test_criterion_1_exhaustive_bihole():
    start = time.perf_counter()
    checked = 0
    for g in small_suite():
        w, tr = find_bihole(g)
        exact = max_bihole_exact(g)
        assert bound_report(g, 0).floor_bound <= w.size <= exact
        assert is_bihole(g, w.left_set, w.right_set)
        assert check_trace(g, tr, 0)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 530
    assert elapsed < 5.0
    report(1, elapsed, "530 graphs, d=0, zero violations")


def test_criterion_2_exhaustive_degenerate():
    start = time.perf_counter()
    checked = 0
    for g in small_suite():
        for d in (1, 2, 3):
            w, tr = find_degenerate(g, d)
            exact = max_degenerate_exact(g, d)
            assert bound_report(g, d).floor_bound <= w.size <= exact
            assert check_elimination_order(
                g, w.left_set, w.right_set, d, w.elimination_order
            )
            assert check_trace(g, tr, d)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 530 * 3
    assert elapsed < 60.0
    report(2, elapsed, "530 graphs x d in {1,2,3}, zero violations")


def test_criterion_3_randomized_suite():
    start = time.perf_counter()
    for n, p, seed, g in gnp_suite():
        w, tr = find_bihole(g)
        assert is_bihole(g, w.left_set, w.right_set)
        rep = bound_report(g, 0)
        assert w.size >= math.ceil(rep.strengthened) >= rep.floor_bound
        values = list(tr.bound_values)
        assert values == sorted(values)
        assert check_trace(g, tr, 0)
        # determinism: regenerate from the seed and re-extract
        again = generate("gnp", n, seed=seed, p=p)
        assert again == g
        assert find_bihole(again) == (w, tr)
        if n <= 12:
            assert w.size <= max_bihole_exact(g)
        if n <= 8:
            for d in (1, 2, 3):
                wd, trd = find_degenerate(g, d)
                assert check_elimination_order(
                    g, wd.left_set, wd.right_set, d, wd.elimination_order
                )
                assert check_trace(g, trd, d)
                assert bound_report(g, d).floor_bound <= wd.size <= max_degenerate_exact(g, d)
    elapsed = time.perf_counter() - start
    assert len(gnp_suite()) == 1040
    assert elapsed < 120.0
    report(3, elapsed, "1040 seeded graphs, zero violations")


def test_criterion_4_named_instances():
    start = time.perf_counter()
    c6 = generate("cycle", 3)
    rep = bound_report(c6, 0)
    assert (rep.floor_bound, rep.strengthened) == (1, Fraction(1, 3))
    assert find_bihole(c6)[0].size >= 1
    assert max_bihole_exact(c6) == 1

    for n in range(1, 7):
        knn = generate("complete", n)
        assert bound_report(knn, 0).floor_bound == 0
        assert max_bihole_exact(knn) == 0

    for n in range(1, 9):
        empty = generate("edgeless", n)
        assert bound_report(empty, 0).floor_bound == n
        assert find_bihole(empty)[0].size == n

    m10 = generate("matching", 10)
    assert bound_report(m10, 0).floor_bound == 5
    assert max_bihole_exact(m10) == 5

    k22, k33 = generate("complete", 2), generate("complete", 3)
    assert bound_report(k22, 1).floor_bound == 1 and max_degenerate_exact(k22, 1) == 1
    assert bound_report(k33, 2).floor_bound == 2 and max_degenerate_exact(k33, 2) == 2
    elapsed = time.perf_counter() - start
    report(4, elapsed, "all named values exact")


def test_criterion_5_rounding_inequality():
    start = time.perf_counter()
    count = 0
    for g in small_suite() + tuple(g for _, _, _, g in gnp_suite()):
        for d in (0, 1, 2, 3):
            rep = bound_report(g, d)
            assert math.ceil(rep.strengthened) >= rep.floor_bound
            count += 1
    elapsed = time.perf_counter() - start
    report(5, elapsed, f"{count} exact comparisons")


def test_criterion_6_jensen_relation():
    start = time.perf_counter()
    count = 0
    for g in small_suite() + tuple(g for _, _, _, g in gnp_suite()):
        n = g.left_count
        avg = Fraction(g.edge_count, n)
        assert caro_wei_sum(g, 0) / 2 >= Fraction(n) / (avg + 1)
        rep = bound_report(g, 0)
        assert rep.floor_bound >= rep.average_degree_bound
        count += 1
    elapsed = time.perf_counter() - start
    report(6, elapsed, f"{count} exact comparisons")


def test_criterion_7_degenerate_zero_matches_bihole():
    start = time.perf_counter()
    graphs = small_suite() + tuple(g for _, _, _, g in gnp_suite())
    for g in graphs:
        wb, trb = find_bihole(g)
        wd, trd = find_degenerate(g, 0)
        assert (wd.left_set, wd.right_set) == (wb.left_set, wb.right_set)
        assert trd == trb
        if g.left_count <= 8:
            assert max_degenerate_exact(g, 0) == max_bihole_exact(g)
    elapsed = time.perf_counter() - start
    report(7, elapsed, f"{len(graphs)} graphs")


def test_criterion_8_complement_duality():
    start = time.perf_counter()
    master = SplitMix64(77)
    sizes = itertools.cycle(range(1, 13))
    ps = itertools.cycle(GNP_PS)
    for _ in range(200):
        g = generate("gnp", next(sizes), seed=master.next_u64(), p=next(ps))
        assert max_bihole_exact(g) == max_biclique_exact(g.complement())
    elapsed = time.perf_counter() - start
    report(8, elapsed, "200 graphs, n <= 12")


def test_criterion_9_reproducible_csv(tmp_path):
    start = time.perf_counter()
    argv = [
        "experiment",
        "--models", "gnp",
        "--n-range", "4-6",
        "--p-grid", "0.2,0.5,0.8",
        "--d-set", "0,1",
        "--trials", "2",
        "--seed", "20260819",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["-o", str(first)]) == 0
    assert main(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 1 + 3 * 3 * 2 * 2
    elapsed = time.perf_counter() - start
    report(9, elapsed, "byte-identical CSV")
