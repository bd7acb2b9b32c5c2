"""Reference bound sums: one ``Fraction`` addition per distinct degree, kept
as a test oracle.

:func:`biholes.bounds.caro_wei_sum` sums integer multiples of one lcm
denominator and builds a single Fraction, and ``strengthened_bound`` adds
the two max-degree potentials in integers too.  The equivalence tests
compare both against these straightforward Fraction loops.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from biholes.bigraph import BipartiteGraph
from biholes.bounds import potential


def caro_wei_sum(g: BipartiteGraph, d: int = 0) -> Fraction:
    counts: Counter = Counter()
    for nbrs in g.left_adj + g.right_adj:
        counts[len(nbrs)] += 1
    total = Fraction(0)
    for deg, count in counts.items():
        total += count * potential(deg, d)
    return total


def strengthened_bound(g: BipartiteGraph, d: int = 0) -> Fraction:
    if g.left_count == 0:
        return Fraction(0)
    total = caro_wei_sum(g, d)
    total += potential(max(len(nbrs) for nbrs in g.left_adj), d)
    total += potential(max(len(nbrs) for nbrs in g.right_adj), d)
    return total / 2 - 1
