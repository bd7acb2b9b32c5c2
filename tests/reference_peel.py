"""Reference peels: the straightforward rescan versions, kept as test oracles.

Every query here rescans all live vertices and every bound value is a fresh
``Fraction`` sum, so a step costs O(n) or more.  They are slow but follow the
selection rules of :mod:`biholes.extract` and of
:func:`biholes.oracle.degeneracy_certificate` word for word, which is what
the equivalence tests compare the bucket-queue versions against.
"""

from __future__ import annotations

from fractions import Fraction

from biholes.bigraph import BipartiteGraph, Side, VertexRef
from biholes.extract import LOW_DEGREE_EDGE_DELETION, PAIR_CASE1, PAIR_CASE2, PeelStep
from biholes.oracle import StuckCore
from reference_bounds import potential


class RescanGraph:
    """Mutable peeling state; adjacency sets only mention alive vertices."""

    def __init__(self, g: BipartiteGraph):
        self.n = g.left_count
        self.ladj = [set(nbrs) for nbrs in g.left_adj]
        self.radj = [set(nbrs) for nbrs in g.right_adj]
        self.alive_l = [True] * g.left_count
        self.alive_r = [True] * g.right_count
        self.alive_count = g.left_count
        self.edge_count = g.edge_count

    def max_deg_left(self) -> int:
        return max((len(self.ladj[i]) for i in range(self.n) if self.alive_l[i]), default=0)

    def max_deg_right(self) -> int:
        return max((len(self.radj[j]) for j in range(self.n) if self.alive_r[j]), default=0)

    def select_pair(self) -> tuple[int, int, int]:
        da = self.max_deg_left()
        db = self.max_deg_right()
        cand_a = [i for i in range(self.n) if self.alive_l[i] and len(self.ladj[i]) == da]
        cand_b = [j for j in range(self.n) if self.alive_r[j] and len(self.radj[j]) == db]
        for a in cand_a:
            for b in cand_b:
                if b not in self.ladj[a]:
                    return a, b, 1
        return cand_a[0], cand_b[0], 2

    def low_degree_vertex(self, d: int) -> VertexRef | None:
        best = None
        for i in range(self.n):
            if self.alive_l[i] and 1 <= len(self.ladj[i]) <= d:
                key = (len(self.ladj[i]), 0, i)
                if best is None or key < best:
                    best = key
        for j in range(self.n):
            if self.alive_r[j] and 1 <= len(self.radj[j]) <= d:
                key = (len(self.radj[j]), 1, j)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        _, side_rank, idx = best
        return VertexRef(Side.LEFT if side_rank == 0 else Side.RIGHT, idx)

    def remove_pair(self, a: int, b: int) -> None:
        self.edge_count -= len(self.ladj[a])
        for r in self.ladj[a]:
            self.radj[r].discard(a)
        self.ladj[a] = set()
        self.edge_count -= len(self.radj[b])
        for l in self.radj[b]:
            self.ladj[l].discard(b)
        self.radj[b] = set()
        self.alive_l[a] = False
        self.alive_r[b] = False
        self.alive_count -= 1

    def isolate(self, v: VertexRef) -> None:
        if v.side is Side.LEFT:
            self.edge_count -= len(self.ladj[v.index])
            for r in self.ladj[v.index]:
                self.radj[r].discard(v.index)
            self.ladj[v.index] = set()
        else:
            self.edge_count -= len(self.radj[v.index])
            for l in self.radj[v.index]:
                self.ladj[l].discard(v.index)
            self.radj[v.index] = set()

    def degree_of(self, v: VertexRef) -> int:
        return len(self.ladj[v.index] if v.side is Side.LEFT else self.radj[v.index])

    def strengthened(self, d: int) -> Fraction:
        if self.alive_count == 0:
            return Fraction(0)
        total = potential(self.max_deg_left(), d) + potential(self.max_deg_right(), d)
        for i in range(self.n):
            if self.alive_l[i]:
                total += potential(len(self.ladj[i]), d)
        for j in range(self.n):
            if self.alive_r[j]:
                total += potential(len(self.radj[j]), d)
        return total / 2 - 1

    def survivors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lefts = tuple(i for i in range(self.n) if self.alive_l[i])
        rights = tuple(j for j in range(self.n) if self.alive_r[j])
        return lefts, rights


def reference_peel(g: BipartiteGraph, d: int):
    """(lefts, rights, steps, values), computed exactly as ``_run_peel`` must."""
    work = RescanGraph(g)
    steps: list[PeelStep] = []
    values = [work.strengthened(d)]
    while work.edge_count > 0:
        da = work.max_deg_left()
        db = work.max_deg_right()
        v = work.low_degree_vertex(d) if d >= 1 else None
        if v is not None:
            steps.append(
                PeelStep(
                    kind=LOW_DEGREE_EDGE_DELETION,
                    degrees_before=(da, db, work.degree_of(v), None),
                    v=v,
                )
            )
            work.isolate(v)
        else:
            a, b, case = work.select_pair()
            steps.append(
                PeelStep(
                    kind=PAIR_CASE1 if case == 1 else PAIR_CASE2,
                    degrees_before=(da, db, len(work.ladj[a]), len(work.radj[b])),
                    a=a,
                    b=b,
                )
            )
            work.remove_pair(a, b)
        values.append(work.strengthened(d))
    lefts, rights = work.survivors()
    return lefts, rights, tuple(steps), tuple(values)


def reference_certificate(g: BipartiteGraph, lefts, rights, d: int):
    """Min-degree peeling of the induced subgraph, rescanning every live
    vertex per removal; the result ``degeneracy_certificate`` must return."""
    rset, lset = set(rights), set(lefts)
    ladj = {l: {r for r in g.left_adj[l] if r in rset} for l in lset}
    radj = {r: {l for l in g.right_adj[r] if l in lset} for r in rset}
    order: list[VertexRef] = []
    while ladj or radj:
        best = None
        for l in sorted(ladj):
            deg = len(ladj[l])
            if deg <= d and (best is None or deg < best[0]):
                best = (deg, 0, l)
        for r in sorted(radj):
            deg = len(radj[r])
            if deg <= d and (best is None or deg < best[0]):
                best = (deg, 1, r)
        if best is None:
            return StuckCore(tuple(sorted(ladj)), tuple(sorted(radj)))
        _, side_rank, idx = best
        if side_rank == 0:
            for r in ladj.pop(idx):
                radj[r].discard(idx)
            order.append(VertexRef(Side.LEFT, idx))
        else:
            for l in radj.pop(idx):
                ladj[l].discard(idx)
            order.append(VertexRef(Side.RIGHT, idx))
    return order
