"""Brute-force ground truth and independent witness verification.

Everything in this module is deliberately simple: exhaustive search over
bitmasks and greedy peeling, with no shared machinery with the constructive
extractor, so that it is obviously correct; side-size limits keep it from
being invoked on instances it cannot finish, and fixed ceilings that no
limit lifts keep its tables within about 1 GB.  The bi-hole and biclique
optima bucket the distinct subset ANDs of each half of one side by subset
size (at most 2 x 2^(n/2) entries, built by set doubling) and test target
sizes t = 1, 2, ... in turn, pairing only half-masks with at least t bits
and stopping at the first t that fails.  Most of the cost is the pairs that
pass that filter at the failing t, each half-mask tested against the other
list by one C-level ``any``; it never exceeds one visit per subset of the
side (2^n).  The degenerate optimum enumerates balanced pairs of subsets
outright, counting the edges between S and T by one AND of S's packed rows
with T repeated, so that only pairs within the edge budget reach the
peeling check.
:func:`degeneracy_certificate` keeps its candidates in a heap of ints, one
per (degree, side, index) key, so that it scales to extracted witnesses; its
output is an elimination order that :func:`check_elimination_order` replays
naively, reading the order once against one set of indices per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Iterable

from .bigraph import _SIDES, BipartiteGraph, Side, VertexRef, require_balanced, require_nonnegative_d
from .errors import IndexOutOfRange, InstanceTooLarge

__all__ = [
    "StuckCore",
    "is_bihole",
    "degeneracy_certificate",
    "check_elimination_order",
    "max_bihole_exact",
    "max_biclique_exact",
    "max_degenerate_exact",
]


# Side limits of the exhaustive searches.  The bi-hole/biclique search
# buckets up to 2^(n/2) subset ANDs per half of one side and pairs them by
# target size, so its memory grows as 2^(n/2) and its time at most as the
# 2^n left subsets; the degenerate search lists all 2^n subset masks and
# enumerates balanced pairs of subsets (C(2n, n) of them), hence its much
# smaller default.  No limit lifts a search past its ceiling, the largest
# side whose tables fit in about 1 GB: at n = 45 the worst case, every
# subset AND distinct, peaks at 934 MB of half-buckets; at n = 23 the subset
# masks plus two sizes of repeated masks peak at 606 MB, and n = 24 runs out
# of 1 GiB of address space (CPython 3.11, x86-64).
_BIHOLE_DEFAULT = 22
_BIHOLE_CEILING = 45
_DEGENERATE_DEFAULT = 8
_DEGENERATE_CEILING = 23


def require_positive_limit(limit: int | None) -> None:
    """ValueError unless ``limit`` is None (the search's default) or at least 1."""
    if limit is not None and limit < 1:
        raise ValueError(f"oracle limit must be >= 1, got {limit}")


def _require_side(n: int, limit: int | None, default: int, ceiling: int, search: str) -> None:
    largest = min(default if limit is None else limit, ceiling)
    if n > largest:
        raise InstanceTooLarge(f"side {n} exceeds {search} oracle limit {largest}")


@dataclass(frozen=True)
class StuckCore:
    """A non-empty induced subgraph whose minimum degree exceeds d.

    Returned by :func:`degeneracy_certificate` in place of an elimination
    order; it certifies that the queried subgraph is not d-degenerate.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]


def _check_side_indices(g: BipartiteGraph, indices: Iterable[int], side: Side) -> set[int]:
    """The indices as a new set; IndexOutOfRange names the smallest one
    outside side's range."""
    count = g.left_count if side is Side.LEFT else g.right_count
    out = set(indices)
    if out and not (0 <= min(out) and max(out) < count):
        i = min(i for i in out if not 0 <= i < count)
        raise IndexOutOfRange(f"{side.value} index {i} not in [0, {count})")
    return out


def is_bihole(g: BipartiteGraph, left_set: Iterable[int], right_set: Iterable[int]) -> bool:
    """True iff the sets are balanced and no edge of g crosses them."""
    lset = _check_side_indices(g, left_set, Side.LEFT)
    rset = _check_side_indices(g, right_set, Side.RIGHT)
    return len(lset) == len(rset) and all(rset.isdisjoint(g.left_adj[l]) for l in lset)


def degeneracy_certificate(
    g: BipartiteGraph, left_set: Iterable[int], right_set: Iterable[int], d: int
):
    """Min-degree peeling of the induced subgraph on (left_set, right_set).

    Repeatedly removes the vertex of minimum current degree among those with
    degree <= d, breaking ties Left side first, then by ascending index.  The
    candidates sit in a min-heap of ints, ``(degree * 2 + side rank) * span
    + index`` with ``span`` the larger side of g, which order exactly as the
    tuples (degree, side rank, index) would; so each removal costs
    O(deg log n) rather than a scan of every live vertex.
    Returns the full elimination order (a list of VertexRef in original
    labels) iff every vertex gets removed; otherwise returns the remaining
    :class:`StuckCore`, whose minimum degree exceeds d.
    """
    lset = _check_side_indices(g, left_set, Side.LEFT)
    rset = _check_side_indices(g, right_set, Side.RIGHT)
    adj = (
        {l: rset.intersection(g.left_adj[l]) for l in lset},
        {r: lset.intersection(g.right_adj[r]) for r in rset},
    )
    span = max(g.left_count, g.right_count)
    # one key for every vertex whose degree is <= d; a key is stale once its
    # vertex is gone or its degree has fallen
    heap = [
        (len(nbrs) * 2 + s) * span + i
        for s in (0, 1)
        for i, nbrs in adj[s].items()
        if len(nbrs) <= d
    ]
    heapify(heap)
    order: list[VertexRef] = []
    while heap:
        rank, idx = divmod(heappop(heap), span)
        s = rank & 1
        nbrs = adj[s].get(idx)
        if nbrs is None or len(nbrs) != rank >> 1:
            continue
        del adj[s][idx]
        t = 1 - s
        other = adj[t]
        for j in nbrs:
            rest = other[j]
            rest.discard(idx)
            if len(rest) <= d:
                heappush(heap, (len(rest) * 2 + t) * span + j)
        order.append(VertexRef(_SIDES[s], idx))
    if adj[0] or adj[1]:
        return StuckCore(tuple(sorted(adj[0])), tuple(sorted(adj[1])))
    return order


def check_elimination_order(
    g: BipartiteGraph,
    left_set: Iterable[int],
    right_set: Iterable[int],
    d: int,
    order: Iterable[VertexRef],
) -> bool:
    """Replay a claimed elimination order and verify it.

    Valid iff the order covers left_set union right_set exactly once and
    every vertex has degree <= d inside the not-yet-removed part of the
    induced subgraph at its removal time.  ``order`` is read once, so an
    iterator gets the verdict of the list it yields.  The not-yet-removed
    part is one set of indices per side: each entry must be a member of its
    side's set, is checked against the other side's and is then removed,
    and both sets must end empty.
    """
    lset = _check_side_indices(g, left_set, Side.LEFT)
    rset = _check_side_indices(g, right_set, Side.RIGHT)
    left_adj, right_adj = g.left_adj, g.right_adj
    for v in order:
        side, i = v.side, v.index
        if side is Side.LEFT:
            if i not in lset or len(rset.intersection(left_adj[i])) > d:
                return False
            lset.remove(i)
        elif side is Side.RIGHT:
            if i not in rset or len(lset.intersection(right_adj[i])) > d:
                return False
            rset.remove(i)
        else:
            return False
    return not lset and not rset


# -- exhaustive optima --------------------------------------------------------


def _left_masks(g: BipartiteGraph) -> list[int]:
    return [sum(1 << r for r in nbrs) for nbrs in g.left_adj]


def _masks_by_size(masks: list[int], full: int) -> list[set[int]]:
    """buckets[k] = the distinct ANDs over k-element subsets of the block.

    Built by set doubling: taking in mask m adds to bucket k the ANDs of
    bucket k - 1 with m, so each step is one C-level pass per bucket and
    duplicates are dropped as they arise.
    """
    buckets: list[set[int]] = [{full}]
    for m in masks:
        buckets.append(set())
        for k in range(len(buckets) - 1, 0, -1):
            buckets[k].update(map(m.__and__, buckets[k - 1]))
    return buckets


def _attains(lo: list, hi: list, t: int) -> bool:
    """True iff some t-subset, k members from the low half and t - k from
    the high half, has at least t bits in the AND of its masks.

    Each filtered list is stored back into its bucket: t only grows, and a
    mask with fewer than t bits has fewer than every later t."""
    at_least_t = t.__le__
    for k in range(max(0, t - len(hi) + 1), min(t, len(lo) - 1) + 1):
        lows = lo[k] = [m for m in lo[k] if m.bit_count() >= t]
        if not lows:
            continue
        highs = hi[t - k] = [m for m in hi[t - k] if m.bit_count() >= t]
        if len(highs) < len(lows):
            lows, highs = highs, lows
        for a in lows:
            if any(map(at_least_t, map(int.bit_count, map(a.__and__, highs)))):
                return True
    return False


def _best_balanced(masks: list[int], n: int) -> int:
    """max over left subsets S of min(|S|, |AND of masks over S|).

    Size-targeted split-half search.  A value t is attained iff some S with
    |S| = t exactly has at least t common bits, because dropping members of
    a larger S only adds common bits; so attainment is monotone in t and the
    search tries t = 1, 2, ... until one fails.  The AND over S factors
    through the two halves of the index range, whose distinct subset ANDs
    are bucketed once by subset size; for each t only half-masks
    with at least t bits take part, and the first good pair ends the test.
    """
    full = (1 << n) - 1
    half = n // 2
    lo = _masks_by_size(masks[:half], full)
    hi = _masks_by_size(masks[half:], full)
    t = 0
    while t < n and _attains(lo, hi, t + 1):
        t += 1
    return t


def max_bihole_exact(g: BipartiteGraph, limit: int | None = None) -> int:
    """The largest t with a t x t bi-hole, by exhaustive left-subset search.

    For each left subset S the best partner is its common non-neighbourhood,
    so the optimum is max over S of min(|S|, |non-neighbourhood(S)|).
    Refuses a side over ``limit`` (default 22; ValueError below 1) with
    InstanceTooLarge, and any side over 45 whatever the limit.
    """
    require_positive_limit(limit)
    require_balanced(g, "max_bihole_exact")
    n = g.left_count
    _require_side(n, limit, _BIHOLE_DEFAULT, _BIHOLE_CEILING, "bi-hole")
    full = (1 << n) - 1
    non_nbrs = [full & ~m for m in _left_masks(g)]
    return _best_balanced(non_nbrs, n)


def max_biclique_exact(g: BipartiteGraph, limit: int | None = None) -> int:
    """The largest t with a complete t x t subgraph; mirrors max_bihole_exact,
    with the same side limit (default 22) and ceiling (45)."""
    require_positive_limit(limit)
    require_balanced(g, "max_biclique_exact")
    n = g.left_count
    _require_side(n, limit, _BIHOLE_DEFAULT, _BIHOLE_CEILING, "biclique")
    return _best_balanced(_left_masks(g), n)


def _max_degenerate_edge_budget(m: int, d: int) -> int:
    """Most edges a d-degenerate graph on m vertices can have."""
    if m <= d + 1:
        return m * (m - 1) // 2
    return d * m - d * (d + 1) // 2


def _peels_to_empty(unified_adj: list[int], alive: int, d: int) -> bool:
    """Greedy degeneracy check: keep removing any vertex of degree <= d."""
    while alive:
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if (unified_adj[v] & alive).bit_count() <= d:
                alive ^= 1 << v
                break
        else:
            return False
    return True


def max_degenerate_exact(g: BipartiteGraph, d: int, limit: int | None = None) -> int:
    """The largest k with a balanced k x k induced d-degenerate subgraph.

    Enumerates balanced pairs of subsets in decreasing size and in ascending
    bitmask order within each size, returning on the first success; size 0
    always succeeds.  At d = 0 this is the bi-hole optimum again.  Refuses a
    side over ``limit`` (default 8; ValueError below 1) with
    InstanceTooLarge, and any side over 23 whatever the limit.
    """
    require_positive_limit(limit)
    require_balanced(g, "max_degenerate_exact")
    require_nonnegative_d(d)
    n = g.left_count
    _require_side(n, limit, _DEGENERATE_DEFAULT, _DEGENERATE_CEILING, "degenerate")
    left_masks = _left_masks(g)
    # unified vertex space: left i -> bit i, right j -> bit n + j
    unified = [m << n for m in left_masks]
    unified += [sum(1 << l for l in nbrs) for nbrs in g.right_adj]
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_size[mask.bit_count()].append(mask)
    # row i of S sits in bits [i n, (i + 1) n) of one int, and T repeated n
    # times lines up with every row, so one AND counts the S-T edges
    shifted = [m << (i * n) for i, m in enumerate(left_masks)]
    ones = sum(1 << (i * n) for i in range(n))
    for k in range(n, 0, -1):
        within_budget = _max_degenerate_edge_budget(2 * k, d).__ge__
        size_k = by_size[k]
        repeated = list(map(ones.__mul__, size_k))
        for s_mask in size_k:
            rows = sum(shifted[i] for i in range(n) if s_mask >> i & 1)
            edges = map(int.bit_count, map(rows.__and__, repeated))
            for t_mask in compress(size_k, map(within_budget, edges)):
                if _peels_to_empty(unified, s_mask | (t_mask << n), d):
                    return k
    return 0
