"""Brute-force ground truth and independent witness verification.

Everything in this module is deliberately simple: exhaustive search over
bitmasks and greedy peeling, with no shared machinery with the constructive
extractor, so that it is obviously correct; side-size limits keep it from
being invoked on instances it cannot finish.  The bi-hole and biclique
optima tabulate the subset ANDs of each half of one side (2 x 2^(n/2)
entries) and test target sizes t = 1, 2, ... in turn, pairing only
half-masks with at least t bits and stopping at the first t that fails.
Most of the cost is the pairs that pass that filter at the failing t; it
never exceeds one visit per subset of the side (2^n).  The degenerate
optimum enumerates balanced pairs of subsets outright.
:func:`degeneracy_certificate` keeps its candidates in a heap so that it
scales to extracted witnesses; its output is an elimination order that
:func:`check_elimination_order` replays naively.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .bigraph import BipartiteGraph, Side, VertexRef
from .errors import IndexOutOfRange, InstanceTooLarge, NegativeD, UnbalancedGraph

__all__ = [
    "OracleLimits",
    "StuckCore",
    "is_bihole",
    "degeneracy_certificate",
    "check_elimination_order",
    "max_bihole_exact",
    "max_biclique_exact",
    "max_degenerate_exact",
]


@dataclass(frozen=True)
class OracleLimits:
    """Largest side sizes the exhaustive searches will accept.

    The bi-hole/biclique search tabulates 2^(n/2) subset ANDs per half of
    one side and pairs them by target size, so its memory grows as 2^(n/2)
    and its time at most as the 2^n left subsets; the degenerate search
    enumerates balanced pairs of subsets (C(2n, n) of them), hence the much
    smaller default for the latter.
    """

    max_side_bihole: int = 22
    max_side_degenerate: int = 8

    def __post_init__(self):
        if self.max_side_bihole < 1 or self.max_side_degenerate < 1:
            raise ValueError(f"oracle limits must be positive, got {self}")


@dataclass(frozen=True)
class StuckCore:
    """A non-empty induced subgraph whose minimum degree exceeds d.

    Returned by :func:`degeneracy_certificate` in place of an elimination
    order; it certifies that the queried subgraph is not d-degenerate.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]


def _check_side_indices(g: BipartiteGraph, indices: Iterable[int], side: Side) -> list[int]:
    count = g.left_count if side is Side.LEFT else g.right_count
    out = sorted(set(indices))
    for i in out:
        if not 0 <= i < count:
            raise IndexOutOfRange(f"{side.value} index {i} not in [0, {count})")
    return out


def is_bihole(g: BipartiteGraph, left_set: Iterable[int], right_set: Iterable[int]) -> bool:
    """True iff the sets are balanced and no edge of g crosses them."""
    lefts = _check_side_indices(g, left_set, Side.LEFT)
    rights = _check_side_indices(g, right_set, Side.RIGHT)
    if len(lefts) != len(rights):
        return False
    rset = set(rights)
    for l in lefts:
        if any(r in rset for r in g.left_adj[l]):
            return False
    return True


def degeneracy_certificate(
    g: BipartiteGraph, left_set: Iterable[int], right_set: Iterable[int], d: int
):
    """Min-degree peeling of the induced subgraph on (left_set, right_set).

    Repeatedly removes the vertex of minimum current degree among those with
    degree <= d, breaking ties Left side first, then by ascending index.  The
    candidates sit in a min-heap keyed by (degree, side, index), so each
    removal costs O(deg log n) rather than a scan of every live vertex.
    Returns the full elimination order (a list of VertexRef in original
    labels) iff every vertex gets removed; otherwise returns the remaining
    :class:`StuckCore`, whose minimum degree exceeds d.
    """
    lefts = _check_side_indices(g, left_set, Side.LEFT)
    rights = _check_side_indices(g, right_set, Side.RIGHT)
    rset = set(rights)
    lset = set(lefts)
    adj = (
        {l: {r for r in g.left_adj[l] if r in rset} for l in lefts},
        {r: {l for l in g.right_adj[r] if l in lset} for r in rights},
    )
    # (degree, side rank, index) for every vertex whose degree is <= d; an
    # entry is stale once its vertex is gone or its degree has fallen
    heap = [(len(adj[s][i]), s, i) for s in (0, 1) for i in adj[s] if len(adj[s][i]) <= d]
    heapify(heap)
    order: list[VertexRef] = []
    while heap:
        deg, s, idx = heappop(heap)
        nbrs = adj[s].get(idx)
        if nbrs is None or len(nbrs) != deg:
            continue
        del adj[s][idx]
        other = adj[1 - s]
        for j in nbrs:
            other[j].discard(idx)
            if len(other[j]) <= d:
                heappush(heap, (len(other[j]), 1 - s, j))
        order.append(VertexRef(Side.LEFT if s == 0 else Side.RIGHT, idx))
    if adj[0] or adj[1]:
        return StuckCore(tuple(sorted(adj[0])), tuple(sorted(adj[1])))
    return order


def check_elimination_order(
    g: BipartiteGraph,
    left_set: Iterable[int],
    right_set: Iterable[int],
    d: int,
    order: Sequence[VertexRef],
) -> bool:
    """Replay a claimed elimination order and verify it.

    Valid iff the order covers left_set union right_set exactly once and
    every vertex has degree <= d inside the not-yet-removed part of the
    induced subgraph at its removal time.
    """
    lefts = _check_side_indices(g, left_set, Side.LEFT)
    rights = _check_side_indices(g, right_set, Side.RIGHT)
    expected = {(Side.LEFT, l) for l in lefts} | {(Side.RIGHT, r) for r in rights}
    seen = [(v.side, v.index) for v in order]
    if len(seen) != len(set(seen)) or set(seen) != expected:
        return False
    lset, rset = set(lefts), set(rights)
    for v in order:
        if v.side is Side.LEFT:
            if sum(1 for r in g.left_adj[v.index] if r in rset) > d:
                return False
            lset.discard(v.index)
        else:
            if sum(1 for l in g.right_adj[v.index] if l in lset) > d:
                return False
            rset.discard(v.index)
    return True


# -- exhaustive optima --------------------------------------------------------


def _require_balanced(g: BipartiteGraph, op: str) -> None:
    if not g.is_balanced:
        raise UnbalancedGraph(f"{op} needs a balanced graph, got {g.left_count} x {g.right_count}")


def _left_masks(g: BipartiteGraph) -> list[int]:
    return [sum(1 << r for r in nbrs) for nbrs in g.left_adj]


def _common_mask_table(masks: list[int], full: int) -> list[int]:
    """table[s] = AND over i in s of masks[i], for every subset s of the block."""
    table = [full] * (1 << len(masks))
    for s in range(1, 1 << len(masks)):
        low = s & -s
        table[s] = table[s ^ low] & masks[low.bit_length() - 1]
    return table


def _masks_by_size(masks: list[int], full: int) -> list[set[int]]:
    """buckets[k] = the distinct ANDs over k-element subsets of the block."""
    buckets: list[set[int]] = [set() for _ in range(len(masks) + 1)]
    for s, m in enumerate(_common_mask_table(masks, full)):
        buckets[s.bit_count()].add(m)
    return buckets


def _attains(lo: list[set[int]], hi: list[set[int]], t: int) -> bool:
    """True iff some t-subset, k members from the low half and t - k from
    the high half, has at least t bits in the AND of its masks."""
    for k in range(max(0, t - len(hi) + 1), min(t, len(lo) - 1) + 1):
        lows = [m for m in lo[k] if m.bit_count() >= t]
        if not lows:
            continue
        highs = [m for m in hi[t - k] if m.bit_count() >= t]
        if any((a & b).bit_count() >= t for a in lows for b in highs):
            return True
    return False


def _best_balanced(masks: list[int], n: int) -> int:
    """max over left subsets S of min(|S|, |AND of masks over S|).

    Size-targeted split-half search.  A value t is attained iff some S with
    |S| = t exactly has at least t common bits, because dropping members of
    a larger S only adds common bits; so attainment is monotone in t and the
    search tries t = 1, 2, ... until one fails.  The AND over S factors
    through the two halves of the index range, whose subset ANDs are
    tabulated once and bucketed by subset size; for each t only half-masks
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


def max_bihole_exact(g: BipartiteGraph, limits: OracleLimits | None = None) -> int:
    """The largest t with a t x t bi-hole, by exhaustive left-subset search.

    For each left subset S the best partner is its common non-neighbourhood,
    so the optimum is max over S of min(|S|, |non-neighbourhood(S)|).
    """
    limits = limits or OracleLimits()
    _require_balanced(g, "max_bihole_exact")
    n = g.left_count
    if n > limits.max_side_bihole:
        raise InstanceTooLarge(f"side {n} exceeds bi-hole oracle limit {limits.max_side_bihole}")
    full = (1 << n) - 1
    non_nbrs = [full & ~m for m in _left_masks(g)]
    return _best_balanced(non_nbrs, n)


def max_biclique_exact(g: BipartiteGraph, limits: OracleLimits | None = None) -> int:
    """The largest t with a complete t x t subgraph; mirrors max_bihole_exact."""
    limits = limits or OracleLimits()
    _require_balanced(g, "max_biclique_exact")
    n = g.left_count
    if n > limits.max_side_bihole:
        raise InstanceTooLarge(f"side {n} exceeds biclique oracle limit {limits.max_side_bihole}")
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


def max_degenerate_exact(g: BipartiteGraph, d: int, limits: OracleLimits | None = None) -> int:
    """The largest k with a balanced k x k induced d-degenerate subgraph.

    Enumerates balanced pairs of subsets in decreasing size and in ascending
    bitmask order within each size, returning on the first success; size 0
    always succeeds.  At d = 0 this is the bi-hole optimum again.
    """
    limits = limits or OracleLimits()
    _require_balanced(g, "max_degenerate_exact")
    if d < 0:
        raise NegativeD(f"degeneracy parameter must be >= 0, got {d}")
    n = g.left_count
    if n > limits.max_side_degenerate:
        raise InstanceTooLarge(
            f"side {n} exceeds degenerate oracle limit {limits.max_side_degenerate}"
        )
    left_masks = _left_masks(g)
    # unified vertex space: left i -> bit i, right j -> bit n + j
    unified = [m << n for m in left_masks]
    unified += [sum(1 << l for l in nbrs) for nbrs in g.right_adj]
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_size[mask.bit_count()].append(mask)
    for k in range(n, 0, -1):
        budget = _max_degenerate_edge_budget(2 * k, d)
        for s_mask in by_size[k]:
            rows = [left_masks[i] for i in range(n) if s_mask >> i & 1]
            for t_mask in by_size[k]:
                edges = sum((row & t_mask).bit_count() for row in rows)
                if edges > budget:
                    continue
                if _peels_to_empty(unified, s_mask | (t_mask << n), d):
                    return k
    return 0
