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
"""

from __future__ import annotations

from biholes.bigraph import BipartiteGraph


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
