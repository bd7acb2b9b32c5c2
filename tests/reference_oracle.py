"""Reference bi-hole/biclique optimum: the plain split-half loop, kept as a test oracle.

It visits every pair of half-subsets (up to 2^(n/2) x 2^(n/2)) and keeps the
best min(|S|, |AND over S|), pruning only blocks that cannot beat the best so
far.  It is slow but computes the defining maximum directly, which is what
the equivalence tests compare the size-targeted search in
:mod:`biholes.oracle` against.
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
