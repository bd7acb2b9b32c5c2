"""Reference gnp generator: one SplitMix64 call per potential edge, kept as a test oracle.

It draws the n*n values one at a time in row-major order and builds the graph
from the kept (i, j) pairs with :func:`build_graph`.  The equivalence tests
compare :func:`biholes.bigraph.generate`, which computes the draws in bulk
and cuts the rows from the kept indices, against it: same adjacency on both
sides and same edge count.
"""

from __future__ import annotations

from fractions import Fraction

from biholes.bigraph import BipartiteGraph, SplitMix64, build_graph


def generate_gnp(n: int, seed: int, p: float | Fraction) -> BipartiteGraph:
    """The seeded gnp graph, each of the n*n edges kept iff its draw is below
    floor(p * 2**64)."""
    threshold = int(Fraction(p) * (1 << 64))
    rng = SplitMix64(seed)
    edges = [
        (i, j) for i in range(n) for j in range(n) if rng.next_u64() < threshold
    ]
    return build_graph(n, n, edges)
