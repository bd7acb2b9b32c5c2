"""Reference bound sums: one ``Fraction`` addition per distinct degree, kept
as a test oracle.

:func:`biholes.bounds.caro_wei_sum` sums integer multiples of one lcm
denominator and builds a single Fraction, and :func:`biholes.bounds.bound_report`
adds the two max-degree potentials and computes the average-degree bound,
the log reference and its size hypothesis in integers over one denominator.
The equivalence tests compare all of them against these straightforward
Fraction expressions, which share no bound code with the library.
"""

from __future__ import annotations

import decimal
import math
from collections import Counter
from fractions import Fraction

from biholes.bigraph import BipartiteGraph
from biholes.bounds import BoundReport


def potential(x: int, d: int = 0) -> Fraction:
    """min(1, (d+1)/(x+1)) for a vertex of degree x; equals 1 iff x <= d."""
    return Fraction(1) if x <= d else Fraction(d + 1, x + 1)


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


def average_degree_bound(g: BipartiteGraph) -> Fraction:
    n = g.left_count
    if n == 0:
        return Fraction(0)
    avg = Fraction(g.edge_count, n)
    return Fraction(n) / (avg + 1) - 2


def _ln(x: Fraction) -> Fraction:
    ctx = decimal.Context(prec=30, rounding=decimal.ROUND_HALF_EVEN)
    value = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return Fraction(value.ln(ctx))


def log_reference_bound(g: BipartiteGraph, eps: Fraction) -> Fraction:
    n = g.left_count
    avg = Fraction(g.edge_count, n) if n else Fraction(0)
    return eps / 2 * n * _ln(avg) / avg


def bound_report(g: BipartiteGraph, d: int = 0, eps: Fraction = Fraction(1, 2)) -> BoundReport:
    """The report with every value a Fraction expression in the average degree."""
    n = g.left_count
    eps = Fraction(eps)
    avg = Fraction(g.edge_count, n) if n else Fraction(0)
    log_ref = log_eps = hypothesis = None
    if avg > 1:
        log_eps = eps
        log_ref = log_reference_bound(g, log_eps)
        hypothesis = n >= (1 + log_eps) * avg
    return BoundReport(
        n=n,
        d=d,
        floor_bound=math.floor(caro_wei_sum(g, d) / 2),
        strengthened=strengthened_bound(g, d),
        average_degree_bound=average_degree_bound(g),
        log_reference=log_ref,
        log_reference_eps=log_eps,
        log_size_hypothesis_met=hypothesis,
    )
