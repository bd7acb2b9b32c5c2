"""Reference exhaustive optima, kept as test oracles.

The bi-hole/biclique optimum is the plain split-half loop: it visits every
pair of half-subsets (up to 2^(n/2) x 2^(n/2)) and keeps the best
min(|S|, |AND over S|), pruning only blocks that cannot beat the best so
far.  It is slow but computes the defining maximum directly, which is what
the equivalence tests compare the size-targeted search in
:mod:`biholes.oracle` against.  The degenerate optimum is the balanced-pair
enumeration with the S-T edge count summed row by row, which the tests
compare the packed edge count of :func:`biholes.oracle.max_degenerate_exact`
against.

The witness checks are the per-neighbour loops that
:func:`biholes.oracle.is_bihole`, :func:`biholes.oracle.degeneracy_certificate`
and :func:`biholes.oracle.check_elimination_order` replaced with C-level set
operations; the equivalence tests compare verdicts, orders and stuck cores.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from biholes.bigraph import BipartiteGraph, Side, VertexRef
from biholes.oracle import StuckCore, _check_side_indices


def _and_table(masks: list[int], full: int) -> list[int]:
    """table[s] = AND over i in s of masks[i], for every subset s."""
    table = [full] * (1 << len(masks))
    for s in range(1, 1 << len(masks)):
        low = s & -s
        table[s] = table[s ^ low] & masks[low.bit_length() - 1]
    return table


def _neighbour_masks(g: BipartiteGraph) -> list[int]:
    return [sum(1 << r for r in nbrs) for nbrs in g.left_adj]


def reference_best_balanced(masks: list[int], n: int) -> int:
    """max over left subsets S of min(|S|, |AND of masks over S|)."""
    full = (1 << n) - 1
    half = n // 2
    lo_table = _and_table(masks[:half], full)
    hi_table = _and_table(masks[half:], full)
    hi_size = n - half
    best = 0
    for hi in range(1 << hi_size):
        m_hi = hi_table[hi]
        c_hi = hi.bit_count()
        if min(c_hi + half, m_hi.bit_count()) <= best:
            continue
        for lo in range(1 << half):
            m = m_hi & lo_table[lo]
            t = min(c_hi + lo.bit_count(), m.bit_count())
            if t > best:
                best = t
    return best


def reference_max_bihole(g: BipartiteGraph) -> int:
    n = g.left_count
    full = (1 << n) - 1
    return reference_best_balanced([full & ~m for m in _neighbour_masks(g)], n)


def reference_max_biclique(g: BipartiteGraph) -> int:
    return reference_best_balanced(_neighbour_masks(g), g.left_count)


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


def reference_max_degenerate(g: BipartiteGraph, d: int) -> int:
    """The largest k with a balanced k x k induced d-degenerate subgraph."""
    n = g.left_count
    left_masks = _neighbour_masks(g)
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


def reference_is_bihole(g: BipartiteGraph, left_set: Iterable[int], right_set: Iterable[int]) -> bool:
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


def reference_degeneracy_certificate(
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


def reference_check_elimination_order(
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
