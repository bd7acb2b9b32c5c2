"""Constructive peeling: extract bi-holes and balanced degenerate subgraphs.

The extractor repeatedly shrinks a private working copy of the input graph
until no edges remain; the surviving vertices are the witness.  Three kinds
of step can occur, always chosen by fixed deterministic rules:

* ``low_degree_edge_deletion`` (only when d >= 1): some vertex v has
  1 <= deg(v) <= d, so all of v's edges are deleted and v survives.  The
  vertex chosen is the one of minimum degree in [1, d], Left side first,
  then lowest index.
* ``pair_case1``: a maximum-degree left vertex a and maximum-degree right
  vertex b are nonadjacent; both are removed.
* ``pair_case2``: every maximum-degree pair is adjacent; the lexicographically
  smallest maximum-degree pair is removed.  In this case both sides' maximum
  degrees strictly drop.

Pair selection scans maximum-degree left vertices in ascending order and,
for each, maximum-degree right vertices in ascending order; the first
nonadjacent hit wins and yields case 1.

The working graph is a bucket queue in the style of Matula & Beck's
smallest-last ordering and Batagelj & Zaversnik's O(m) core decomposition:
live vertices sit in per-side buckets by degree, with a min-heap of indices
per bucket for the ascending-order tie-breaks and a max-degree pointer per
side that only moves down, since degrees only fall.  The tracked bound is
kept as one exact integer numerator, updated by a precomputed difference
for each vertex whose degree changes.  A step therefore costs time in
proportion to the degrees it changes, times a log factor for the heaps, and
never rescans all n vertices.  The one extra cost is in pair selection: each
max-degree left vertex visited costs a subset test bounded by its degree, and
the scan goes past the first only when that vertex is adjacent to the whole
right max-degree bucket.

The strengthened bound of the working graph never decreases along the peel,
and the final edgeless working graph's value equals the witness size, which
is why the witness size always reaches ceil(strengthened) and hence the
floor bound.  Every step is recorded (in original vertex labels, with the
degrees that justified it) so the whole run can be replayed and audited by
:func:`check_trace`.

For d >= 1 the witness is a vertex set whose induced subgraph *in the
original graph* is d-degenerate: edges deleted at a low-degree vertex come
back when the witness is induced, but each such vertex gained at most d
edges, which cannot break d-degeneracy.  A min-degree elimination order of
the induced witness is attached as an independently checkable certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush

from .bigraph import BipartiteGraph, Side, VertexRef
from .bounds import BoundReport, bound_report, rational_to_json
from .errors import NegativeD, NoEdges, TraceMismatch, UnbalancedGraph
from .oracle import StuckCore, degeneracy_certificate

__all__ = [
    "PAIR_CASE1",
    "PAIR_CASE2",
    "LOW_DEGREE_EDGE_DELETION",
    "PeelStep",
    "PeelTrace",
    "BiholeWitness",
    "DegenerateWitness",
    "select_pair",
    "find_bihole",
    "find_degenerate",
    "check_trace",
]

PAIR_CASE1 = "pair_case1"
PAIR_CASE2 = "pair_case2"
LOW_DEGREE_EDGE_DELETION = "low_degree_edge_deletion"


@dataclass(frozen=True)
class PeelStep:
    """One recorded peeling step, in original vertex labels.

    ``degrees_before`` is (max_deg_left, max_deg_right, deg(a) or deg(v),
    deg(b) or None) measured in the working graph just before the step.
    """

    kind: str
    degrees_before: tuple
    a: int | None = None
    b: int | None = None
    v: VertexRef | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "a": self.a,
            "b": self.b,
            "v": self.v.to_json() if self.v is not None else None,
            "degrees_before": list(self.degrees_before),
        }


@dataclass(frozen=True)
class PeelTrace:
    """Audit log of one extraction run.

    ``bound_values[0]`` is the strengthened bound of the input graph and
    ``bound_values[i]`` the value after step i; the sequence never decreases
    and its last entry equals the witness size.
    """

    steps: tuple[PeelStep, ...]
    initial_report: BoundReport
    bound_values: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "initial_report": self.initial_report.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "bound_values": [rational_to_json(v) for v in self.bound_values],
        }


@dataclass(frozen=True)
class BiholeWitness:
    """Balanced vertex sets with no edges between them, in original labels."""

    left_set: tuple[int, ...]
    right_set: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.left_set)

    def to_json(self) -> dict:
        return {
            "left": list(self.left_set),
            "right": list(self.right_set),
            "size": self.size,
        }


@dataclass(frozen=True)
class DegenerateWitness:
    """Balanced vertex sets inducing a d-degenerate subgraph, with certificate."""

    left_set: tuple[int, ...]
    right_set: tuple[int, ...]
    elimination_order: tuple[VertexRef, ...]

    @property
    def size(self) -> int:
        return len(self.left_set)

    def to_json(self) -> dict:
        return {
            "left": list(self.left_set),
            "right": list(self.right_set),
            "size": self.size,
            "elimination_order": [v.to_json() for v in self.elimination_order],
        }


_SIDES = (Side.LEFT, Side.RIGHT)


def _rank(side: Side) -> int:
    return 0 if side is Side.LEFT else 1


class _WorkingGraph:
    """Mutable peeling state, kept in the original index space.

    Sides are numbered 0 (Left) and 1 (Right).  Adjacency sets only mention
    live vertices, so a vertex's degree is the size of its set, and every
    live vertex sits in exactly one bucket, ``buckets[side][degree]``.
    ``heaps[side][degree]`` holds the same indices as a min-heap for the
    ascending-order queries; an entry whose vertex has left that bucket is
    stale and is dropped once it reaches the top.  Degrees only fall, so a
    vertex enters each bucket at most once and the per-side max-degree
    pointers only move down.

    ``total`` is ``scale`` times the sum of potential(deg v, d) over live
    vertices.  ``scale`` is the lcm of x + 1 over d < x <= the initial
    maximum degree, so every potential is a whole multiple of 1/scale and
    the sum is kept exactly as an int, updated per changed degree.
    """

    def __init__(self, g: BipartiteGraph, d: int):
        self.n = g.left_count
        self.adj = ([set(nbrs) for nbrs in g.left_adj], [set(nbrs) for nbrs in g.right_adj])
        top = max(g.max_degree(Side.LEFT), g.max_degree(Side.RIGHT)) if self.n else 0
        self.buckets = ([set() for _ in range(top + 1)], [set() for _ in range(top + 1)])
        # filled in ascending index order, so each list already is a valid heap
        self.heaps = ([[] for _ in range(top + 1)], [[] for _ in range(top + 1)])
        for s in (0, 1):
            for i, nbrs in enumerate(self.adj[s]):
                self.buckets[s][len(nbrs)].add(i)
                self.heaps[s][len(nbrs)].append(i)
        self.max = [top, top]
        self.alive_count = g.left_count  # per side; pair removals keep sides equal
        self.edge_count = g.edge_count
        self.scale = math.lcm(*range(d + 2, top + 2))
        self.term = [
            self.scale if x <= d else self.scale * (d + 1) // (x + 1) for x in range(top + 1)
        ]
        # gain[x]: change in total when a live vertex drops from degree x to x - 1
        self.gain = [0] + [self.term[x - 1] - self.term[x] for x in range(1, top + 1)]
        self.total = sum(self.term[len(nbrs)] for side in self.adj for nbrs in side)

    def alive(self, s: int, i: int) -> bool:
        """A removed vertex has an empty adjacency set and sits in no bucket."""
        return i in self.buckets[s][len(self.adj[s][i])]

    def degree(self, s: int, i: int) -> int:
        return len(self.adj[s][i])

    def max_deg(self, s: int) -> int:
        x = self.max[s]
        buckets = self.buckets[s]
        while x > 0 and not buckets[x]:
            x -= 1
        self.max[s] = x
        return x

    def _lowest(self, s: int, x: int, accept=None) -> int | None:
        """Lowest index in bucket (s, x) that ``accept`` passes, or None.

        Stale heap entries are dropped for good; live ones that fail
        ``accept`` are pushed back afterwards.
        """
        bucket, heap = self.buckets[s][x], self.heaps[s][x]
        rejected = []
        found = None
        while heap:
            i = heap[0]
            if i not in bucket:
                heappop(heap)
            elif accept is None or accept(i):
                found = i
                break
            else:
                rejected.append(heappop(heap))
        for i in rejected:
            heappush(heap, i)
        return found

    def select_pair(self) -> tuple[int, int, int]:
        """(a, b, case): first nonadjacent max-degree pair in ascending scan
        order, else the lexicographically smallest max-degree pair (case 2).

        The scan visits max-degree left vertices in ascending order and stops
        at the first whose neighbourhood misses part of the right max-degree
        bucket; its lowest missed vertex is the pair partner.
        """
        da, db = self.max_deg(0), self.max_deg(1)
        ladj = self.adj[0]
        cand_b = self.buckets[1][db]
        a = self._lowest(0, da, lambda i: not cand_b <= ladj[i])
        if a is None:
            return self._lowest(0, da), self._lowest(1, db), 2
        nbrs = ladj[a]
        return a, self._lowest(1, db, lambda j: j not in nbrs), 1

    def low_degree_vertex(self, d: int) -> VertexRef | None:
        """The vertex of minimum degree in [1, d]; Left side first, then
        ascending index.  None when no such vertex exists."""
        for x in range(1, min(d, max(self.max_deg(0), self.max_deg(1))) + 1):
            for s in (0, 1):
                if self.buckets[s][x]:
                    return VertexRef(_SIDES[s], self._lowest(s, x))
        return None

    def _cut(self, s: int, i: int) -> int:
        """Delete every edge at vertex i of side s and take it out of its
        bucket; returns its former degree."""
        t = 1 - s
        other_adj, buckets, heaps, gain = self.adj[t], self.buckets[t], self.heaps[t], self.gain
        nbrs = self.adj[s][i]
        delta = 0
        for j in nbrs:
            nj = other_adj[j]
            x = len(nj)
            nj.remove(i)
            buckets[x].remove(j)
            buckets[x - 1].add(j)
            if x > 1:
                heappush(heaps[x - 1], j)
            delta += gain[x]
        x = len(nbrs)
        self.edge_count -= x
        self.total += delta
        self.adj[s][i] = set()
        self.buckets[s][x].remove(i)
        return x

    def remove_pair(self, a: int, b: int) -> None:
        deg_a = self._cut(0, a)
        deg_b = self._cut(1, b)
        self.total -= self.term[deg_a] + self.term[deg_b]
        self.alive_count -= 1

    def isolate(self, s: int, i: int) -> None:
        deg = self._cut(s, i)
        self.total += self.term[0] - self.term[deg]
        self.buckets[s][0].add(i)

    def strengthened(self) -> Fraction:
        """Strengthened bound of the current working graph (0 when empty)."""
        if self.alive_count == 0:
            return Fraction(0)
        num = self.total + self.term[self.max_deg(0)] + self.term[self.max_deg(1)]
        return Fraction(num - 2 * self.scale, 2 * self.scale)

    def survivors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Live vertices of an edgeless working graph, ascending per side."""
        return tuple(sorted(self.buckets[0][0])), tuple(sorted(self.buckets[1][0]))


def select_pair(g: BipartiteGraph) -> tuple[int, int, int]:
    """Public pair selection on a balanced graph with at least one edge.

    Returns (left_index, right_index, case) with case 1 when the pair is
    nonadjacent and case 2 when every maximum-degree pair is adjacent.
    """
    if not g.is_balanced:
        raise UnbalancedGraph(f"select_pair needs a balanced graph, got {g.left_count} x {g.right_count}")
    if g.edge_count == 0:
        raise NoEdges("select_pair needs at least one edge")
    return _WorkingGraph(g, 0).select_pair()


def _run_peel(g: BipartiteGraph, d: int):
    work = _WorkingGraph(g, d)
    steps: list[PeelStep] = []
    values = [work.strengthened()]
    while work.edge_count > 0:
        da = work.max_deg(0)
        db = work.max_deg(1)
        v = work.low_degree_vertex(d) if d >= 1 else None
        if v is not None:
            s = _rank(v.side)
            steps.append(
                PeelStep(
                    kind=LOW_DEGREE_EDGE_DELETION,
                    degrees_before=(da, db, work.degree(s, v.index), None),
                    v=v,
                )
            )
            work.isolate(s, v.index)
        else:
            a, b, case = work.select_pair()
            steps.append(
                PeelStep(
                    kind=PAIR_CASE1 if case == 1 else PAIR_CASE2,
                    degrees_before=(da, db, work.degree(0, a), work.degree(1, b)),
                    a=a,
                    b=b,
                )
            )
            work.remove_pair(a, b)
        values.append(work.strengthened())
    lefts, rights = work.survivors()
    return lefts, rights, tuple(steps), tuple(values)


def find_bihole(g: BipartiteGraph) -> tuple[BiholeWitness, PeelTrace]:
    """Extract a bi-hole of size >= max(floor_bound, ceil(strengthened)).

    Deterministic: equal inputs give equal witnesses and traces.
    """
    if not g.is_balanced:
        raise UnbalancedGraph(f"find_bihole needs a balanced graph, got {g.left_count} x {g.right_count}")
    lefts, rights, steps, values = _run_peel(g, 0)
    trace = PeelTrace(steps=steps, initial_report=bound_report(g, 0), bound_values=values)
    return BiholeWitness(lefts, rights), trace


def find_degenerate(g: BipartiteGraph, d: int) -> tuple[DegenerateWitness, PeelTrace]:
    """Extract a balanced set inducing a d-degenerate subgraph of g.

    At d = 0 this performs exactly the same peel as :func:`find_bihole` (the
    low-degree branch can never fire) and returns the identical vertex sets
    and trace.  The witness carries a min-degree elimination order of the
    induced subgraph as its certificate.
    """
    if not g.is_balanced:
        raise UnbalancedGraph(f"find_degenerate needs a balanced graph, got {g.left_count} x {g.right_count}")
    if d < 0:
        raise NegativeD(f"degeneracy parameter must be >= 0, got {d}")
    lefts, rights, steps, values = _run_peel(g, d)
    order = degeneracy_certificate(g, lefts, rights, d)
    if isinstance(order, StuckCore):
        raise RuntimeError(
            f"extraction produced a witness that is not {d}-degenerate; "
            f"stuck core {order}"
        )
    trace = PeelTrace(steps=steps, initial_report=bound_report(g, d), bound_values=values)
    return DegenerateWitness(lefts, rights, tuple(order)), trace


def check_trace(g: BipartiteGraph, trace: PeelTrace, d: int) -> bool:
    """Replay a trace against the graph it claims to describe.

    Every step must be applicable exactly as recorded: the named vertices
    alive with the recorded degrees, case 1 pairs nonadjacent, case 2 pairs
    adjacent with no nonadjacent maximum-degree pair available, pair steps
    only while edges remain, and edge deletions only at degrees in [1, d].
    The replay must also end on an edgeless working graph, so a truncated
    trace is rejected.  Violations raise :class:`TraceMismatch`.

    The strengthened bound is recomputed after every replayed step.  Returns
    True iff that sequence is nondecreasing and the trace's stored claims
    agree with it: ``bound_values`` equals it entry for entry, and
    ``initial_report`` names this graph's side size and this d, with its
    ``strengthened`` value equal to the first replayed value.
    """
    if not g.is_balanced:
        raise UnbalancedGraph(f"check_trace needs a balanced graph, got {g.left_count} x {g.right_count}")
    if d < 0:
        raise NegativeD(f"degeneracy parameter must be >= 0, got {d}")
    work = _WorkingGraph(g, d)
    values = [work.strengthened()]
    for pos, step in enumerate(trace.steps):
        da = work.max_deg(0)
        db = work.max_deg(1)
        if step.kind in (PAIR_CASE1, PAIR_CASE2):
            a, b = step.a, step.b
            if a is None or b is None or not (0 <= a < work.n and 0 <= b < work.n):
                raise TraceMismatch(f"step {pos}: pair ({a}, {b}) out of range")
            if not (work.alive(0, a) and work.alive(1, b)):
                raise TraceMismatch(f"step {pos}: pair ({a}, {b}) already removed")
            if work.edge_count == 0:
                raise TraceMismatch(f"step {pos}: pair step on an edgeless working graph")
            deg_a = work.degree(0, a)
            deg_b = work.degree(1, b)
            if deg_a != da or deg_b != db:
                raise TraceMismatch(
                    f"step {pos}: ({a}, {b}) degrees ({deg_a}, {deg_b}) "
                    f"do not attain the maxima ({da}, {db})"
                )
            adjacent = b in work.adj[0][a]
            if step.kind == PAIR_CASE1 and adjacent:
                raise TraceMismatch(f"step {pos}: case 1 pair ({a}, {b}) is adjacent")
            if step.kind == PAIR_CASE2:
                if not adjacent:
                    raise TraceMismatch(f"step {pos}: case 2 pair ({a}, {b}) is nonadjacent")
                if work.select_pair()[2] == 1:
                    raise TraceMismatch(
                        f"step {pos}: case 2 recorded but a nonadjacent "
                        f"maximum-degree pair existed"
                    )
            if tuple(step.degrees_before) != (da, db, deg_a, deg_b):
                raise TraceMismatch(
                    f"step {pos}: recorded degrees {step.degrees_before} != "
                    f"replayed {(da, db, deg_a, deg_b)}"
                )
            work.remove_pair(a, b)
        elif step.kind == LOW_DEGREE_EDGE_DELETION:
            v = step.v
            if v is None or not 0 <= v.index < work.n:
                raise TraceMismatch(f"step {pos}: vertex {v} out of range")
            s = _rank(v.side)
            if not work.alive(s, v.index):
                raise TraceMismatch(f"step {pos}: vertex {v} already removed")
            deg_v = work.degree(s, v.index)
            if not 1 <= deg_v <= d:
                raise TraceMismatch(
                    f"step {pos}: degree {deg_v} of {v} not in [1, {d}]"
                )
            if tuple(step.degrees_before) != (da, db, deg_v, None):
                raise TraceMismatch(
                    f"step {pos}: recorded degrees {step.degrees_before} != "
                    f"replayed {(da, db, deg_v, None)}"
                )
            work.isolate(s, v.index)
        else:
            raise TraceMismatch(f"step {pos}: unknown step kind {step.kind!r}")
        values.append(work.strengthened())
    if work.edge_count > 0:
        raise TraceMismatch(
            f"trace ends after {len(trace.steps)} steps with {work.edge_count} edges left"
        )
    report = trace.initial_report
    return (
        tuple(trace.bound_values) == tuple(values)
        and (report.n, report.d, report.strengthened) == (work.n, d, values[0])
        and all(values[i] <= values[i + 1] for i in range(len(values) - 1))
    )
