"""Exact degree-sequence lower bounds for balanced bipartite graphs.

Everything here is exact rational arithmetic, so floors and ceilings are
exact no matter how adversarial the degree sequence is: the potential sum
is summed in integers over one lcm denominator and returned as a
``fractions.Fraction``, as is every other value.  The
single deliberately approximate quantity is the log reference, which needs
a logarithm; it is computed to 30 correctly-rounded significant digits and
is report-only, never part of a correctness check.

For a balanced n x n graph G with degeneracy parameter d, write
f(x) = min(1, (d+1)/(x+1)) for the potential of a vertex of degree x.
:func:`caro_wei_sum` is the sum of f(deg v) over all vertices, and
:func:`bound_report` reads every bound as a :class:`BoundReport` field:

* ``floor_bound``          = floor(caro_wei_sum / 2), a guaranteed size of a
  balanced induced d-degenerate subgraph (a bi-hole when d = 0)
* ``strengthened``         = (f(max_deg_left) + f(max_deg_right)
  + caro_wei_sum) / 2 - 1, which never decreases during pair peeling and
  whose ceiling dominates floor_bound
* ``average_degree_bound`` = n/(avg_deg + 1) - 2, a coarser classical bound
* ``log_reference``        = (eps/2) * n * ln(avg_deg)/avg_deg, the
  asymptotic reference for sparse graphs

Both functions raise :class:`NegativeD` for d < 0.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import floordiv
from typing import Sequence

from .bigraph import BipartiteGraph, Side, require_balanced, require_nonnegative_d

__all__ = [
    "caro_wei_sum",
    "BoundReport",
    "bound_report",
    "decimal_string",
]

_LOG_DIGITS = 30
_DECIMAL_SIGNIFICANT_DIGITS = 12
_EPS = Fraction(1, 2)


# Contexts of their own, so that no result depends on the caller's context.
_LOG_CONTEXT = decimal.Context(prec=_LOG_DIGITS, rounding=decimal.ROUND_HALF_EVEN)
_DECIMAL_CONTEXT = decimal.Context(prec=_DECIMAL_SIGNIFICANT_DIGITS, rounding=decimal.ROUND_HALF_EVEN)


def caro_wei_sum(g: BipartiteGraph, d: int = 0) -> Fraction:
    """Sum of min(1, (d+1)/(deg(v)+1)) over all vertices of g (any shape).

    Summed in integers over one denominator, the lcm of x + 1 over the
    degrees x > d (1 when there are none), so one Fraction is built.  Its
    check of d is the one that every bound value passes."""
    require_nonnegative_d(d)
    counts = Counter(map(len, g.left_adj))
    counts.update(map(len, g.right_adj))
    scale = math.lcm(*(x + 1 for x in counts if x > d))
    total = sum(
        count * (scale if x <= d else scale // (x + 1) * (d + 1)) for x, count in counts.items()
    )
    return Fraction(total, scale)


@functools.lru_cache(maxsize=64)
def _ln(num: int, den: int) -> tuple[int, int]:
    """Natural log of the positive rational num/den, correctly rounded to 30
    digits, as an integer ratio.  Cached: every d of an experiment asks for
    the same graph's log."""
    value = _LOG_CONTEXT.divide(decimal.Decimal(num), decimal.Decimal(den))
    return value.ln(_LOG_CONTEXT).as_integer_ratio()


def decimal_string(x: Fraction, digits: int = _DECIMAL_SIGNIFICANT_DIGITS) -> str:
    """Decimal rendering of a rational, correctly rounded to ``digits``
    significant digits (round-half-even).  Informational only; the rational
    fields stay authoritative."""
    ctx = _DECIMAL_CONTEXT
    if digits != ctx.prec:
        ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)
    value = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return ctx.to_sci_string(value)


_RATIONAL_TEXT = '{"num": "%d", "den": "%d", "decimal": "%s"}'
_REPORT_TEXT = (
    '{"n": %d, "d": %d, "floor_bound": %d, "strengthened": %s, "ceil_strengthened": %d, '
    '"average_degree_bound": %s, "log_reference": %s}'
)
_LOG_TEXT = '{"value": %s, "eps": %s, "size_hypothesis_met": %s}'
_JSON_LITERAL = {True: "true", False: "false", None: "null"}


def rational_json_items(nums: Sequence[int], den: int) -> str:
    """The values num/den (den > 0) as JSON objects joined by ", ", each
    with its reduced numerator and denominator as strings and its
    :func:`decimal_string`, in the bytes ``json.dumps`` gives those dicts.
    A trace's bound values share one denominator and are reduced here, as
    they are written."""
    ctx, gcds = _DECIMAL_CONTEXT, list(map(math.gcd, nums, repeat(den)))
    tops = list(map(floordiv, nums, gcds))
    bottoms = list(map(floordiv, repeat(den), gcds))
    decimals = map(ctx.to_sci_string, map(ctx.divide, tops, bottoms))
    fields = tuple(chain.from_iterable(zip(tops, bottoms, decimals)))
    return ", ".join(repeat(_RATIONAL_TEXT, len(tops))) % fields


def _rational_text(x: Fraction) -> str:
    return rational_json_items([x.numerator], x.denominator)


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (graph, d) pair.

    ``strengthened`` is the peeling-invariant quantity whose ceiling refines
    ``floor_bound``: (f(max_deg_left) + f(max_deg_right) + sum_v f(deg v))
    / 2 - 1 with f(x) = min(1, (d+1)/(x+1)).  On the 0 x 0 graph there is no
    max degree; it is 0 by convention so traces and reports stay total.
    ``log_reference`` is None when the average degree is <= 1 (the reference
    formula is undefined there).  ``log_size_hypothesis_met`` records whether
    n >= (1 + eps) * avg_deg, the checkable part of the reference bound's
    hypotheses; it is reported, not enforced.
    """

    n: int
    d: int
    floor_bound: int
    strengthened: Fraction
    average_degree_bound: Fraction
    log_reference: Fraction | None = None
    log_reference_eps: Fraction | None = None
    log_size_hypothesis_met: bool | None = None

    @property
    def ceil_strengthened(self) -> int:
        return math.ceil(self.strengthened)

    def json_text(self) -> str:
        """The report as JSON, rationals as by :func:`rational_json_items`
        and ``log_reference`` null when there is none."""
        rationals = self.strengthened, self.average_degree_bound
        strengthened, average = map(_rational_text, rationals)
        log_part = "null"
        if self.log_reference is not None:
            value, eps = map(_rational_text, (self.log_reference, self.log_reference_eps))
            log_part = _LOG_TEXT % (value, eps, _JSON_LITERAL[self.log_size_hypothesis_met])
        return _REPORT_TEXT % (
            self.n, self.d, self.floor_bound, strengthened, self.ceil_strengthened, average, log_part
        )


def bound_report(g: BipartiteGraph, d: int = 0, eps: Fraction = _EPS) -> BoundReport:
    """Every bound value of g at d; on the empty graph every bound is 0.

    The module's one copy of each formula and of the balance and eps checks
    (:func:`caro_wei_sum` checks d).  eps must lie in (0, 1) even when the
    log reference is not reported.  With m edges the average degree is m/n,
    so the average-degree bound is (n^2 - 2(m + n)) / (m + n) and the log
    reference eps n^2 ln(m/n) / (2m), each multiplied out in integers and
    built as one Fraction.
    """
    require_balanced(g, "bound_report")
    total = caro_wei_sum(g, d)
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    n, m = g.left_count, g.edge_count
    num, den = total.numerator, total.denominator
    fb = num // (2 * den)
    if n:
        # add the two max-degree potentials to total over one denominator
        for x in (g.max_degree(Side.LEFT), g.max_degree(Side.RIGHT)):
            top, bottom = (1, 1) if x <= d else (d + 1, x + 1)
            num, den = num * bottom + top * den, den * bottom
        strengthened = Fraction(num - 2 * den, 2 * den)
        average = Fraction(n * n - 2 * (m + n), m + n)
    else:
        strengthened = average = Fraction(0)
    log_ref = log_eps = hypothesis = None
    # the average degree m/n exceeds 1, and n >= (1 + eps) m/n, in integers
    if m > n:
        top, bottom = _ln(m, n)
        log_ref = Fraction(eps.numerator * n * n * top, 2 * eps.denominator * m * bottom)
        log_eps = eps
        hypothesis = n * n * eps.denominator >= (eps.denominator + eps.numerator) * m
    report = BoundReport(n, d, fb, strengthened, average, log_ref, log_eps, hypothesis)
    if report.ceil_strengthened < fb:
        raise RuntimeError(
            f"ceil(strengthened) = {report.ceil_strengthened} is below floor_bound = {fb}"
        )
    return report
