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
smallest-last ordering and Batagelj & Zaversnik's O(m) core decomposition,
cut down to the buckets this rule reads: each side's max bucket and the
buckets 1..d.  Per-side integer degree arrays hold the live degrees, and a
max-degree pointer per side only moves down, since degrees only fall.
Buckets 1..d are counted min-heaps, read by the low-degree rule (at d = 0
there are none).  Above d nothing is counted: a vertex is registered lazily
in one bucket at or above its degree, the buckets are drained top down,
once each, as the max pointer passes them, and each max bucket is sorted
once.  So deleting an edge between two vertices of degree above d + 1
outside the max buckets is one load, one store, two comparisons and one add
to the tracked bound, which is kept as one exact integer numerator.  A step
costs time in proportion to the input degrees of the vertices it cuts (plus
a log factor for pushes into buckets 1..d and the one sort per max bucket),
the drains visit O(n + m) entries over the whole peel, and no step rescans
all n vertices.  The one extra cost is in pair selection, which reads
adjacency off the input graph's sorted rows: each max-degree left vertex
visited costs a binary search per member of the right max-degree bucket,
and the scan goes past the first only when that vertex is adjacent to the
whole bucket.  A vertex found to cover it is remembered, with a snapshot
of the bucket, and later scans pass it with no search until a right drain
brings in a vertex outside the snapshot; on K_{n,n} none does, so its peel
makes one search per edge in all, not one per edge per step.

The strengthened bound of the working graph never decreases along the peel,
and the final edgeless working graph's value equals the witness size, which
is why the witness size always reaches ceil(strengthened) and hence the
floor bound.  Every step is recorded (in original vertex labels, with the
degrees that justified it).  One generator, ``_peel``, carries out the rule
until the working graph is edgeless; the peel collects its steps, and
:func:`check_trace` replays the whole run through it, requiring every
recorded step to equal the step the rule takes.  The witness is every
vertex that no pair step removes.

For d >= 1 the witness is a vertex set whose induced subgraph *in the
original graph* is d-degenerate: edges deleted at a low-degree vertex come
back when the witness is induced, but each such vertex gained at most d
edges, which cannot break d-degeneracy.  A min-degree elimination order of
the induced witness is attached as an independently checkable certificate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress, repeat
from typing import Iterable, Iterator

from .bigraph import BipartiteGraph, Side, VertexRef, require_balanced, require_nonnegative_d
from .bounds import BoundReport, bound_report, rational_to_json
from .errors import TraceMismatch
from .oracle import StuckCore, degeneracy_certificate

__all__ = [
    "PAIR_CASE1",
    "PAIR_CASE2",
    "LOW_DEGREE_EDGE_DELETION",
    "PeelStep",
    "PeelTrace",
    "BiholeWitness",
    "DegenerateWitness",
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


def _in_row(row: tuple[int, ...], j: int) -> bool:
    """Whether j is in the strictly increasing tuple row, by binary search."""
    p = bisect_left(row, j)
    return p < len(row) and row[p] == j


class _WorkingGraph:
    """Mutable peeling state, kept in the original index space.

    Sides are numbered 0 (Left) and 1 (Right), and ``deg[s][i]`` is the live
    degree of vertex i.  A vertex whose edges are cut, or that is removed,
    has degree 0, so the graph's own neighbour tuples are walked, never
    edited: a neighbour of degree 0 has lost the edge already, and any other
    neighbour still has it.  Degrees only fall, so the per-side max-degree
    pointers only move down.

    ``queue[s][x]`` is bucket x.  For 1 <= x <= d it is a min-heap of the
    vertices that entered degree x (stale once they leave it) and
    ``cnt[s][x]`` counts its live vertices; no degree above d is counted.

    Above d each vertex is registered in one bucket at or above its degree,
    at first that of its input degree; of the edge deletions, only a max
    bucket member's drop registers it, at its new degree.  ``refresh_max``
    drains the buckets below the lowest drained one, ``low[s]``, each once,
    until one holds a vertex of its own degree: those vertices form the max
    bucket, which never gains members (``top_order[s]`` ascending,
    ``top_members[s]`` those still in it, ``top_start[s]`` the first position
    that may still hold one), and every other entry above d is registered
    again at its degree.  A registration is made at the current degree, so
    each re-registration is paid for by a drop since the last one: the
    drains visit at most n + m entries per side.

    ``total`` is ``scale`` times the sum of potential(deg v, d) over live
    vertices.  ``scale`` is the lcm of x + 1 over d < x <= the initial
    maximum degree, so every potential is a whole multiple of 1/scale and
    the sum is kept exactly as an int, updated per changed degree.  The
    strengthened bound is likewise an int, its numerator over ``2 * scale``;
    the peel turns these into Fractions for ``bound_values``, and the replay
    never does.  ``max[s]`` is exact between steps: the constructor and
    ``_peel`` refresh it once after each step.

    ``covered`` holds left vertices adjacent to all of ``cover_of``, a copy
    of the right max bucket retaken as a vertex joins an empty memo or after
    the bucket shrank; a right drain leaving ``cover_of`` clears ``covered``.
    """

    def __init__(self, g: BipartiteGraph, d: int):
        self.n = g.left_count
        self.d = d
        self.nbrs = (g.left_adj, g.right_adj)
        self.covered, self.cover_of = set(), set()
        self.deg = ([len(nbrs) for nbrs in g.left_adj], [len(nbrs) for nbrs in g.right_adj])
        top = max(max(self.deg[0], default=0), max(self.deg[1], default=0))
        # filled in ascending index order, so each list already is a valid heap
        self.queue = ([[] for _ in range(top + 1)], [[] for _ in range(top + 1)])
        for queue, deg in zip(self.queue, self.deg):
            for i, x in enumerate(deg):
                queue[x].append(i)
        self.cnt = tuple([len(q) for q in queue[: min(d, top) + 1]] for queue in self.queue)
        self.low = [top + 1, top + 1]
        self.top_x = [-1, -1]
        self.top_order = [[], []]
        self.top_members = [set(), set()]
        self.top_start = [0, 0]
        self.max = [top, top]
        self.refresh_max()
        self.edge_count = g.edge_count
        self.scale = math.lcm(*range(d + 2, top + 2))
        self.term = [
            self.scale if x <= d else self.scale * (d + 1) // (x + 1) for x in range(top + 1)
        ]
        # gain[x]: change in total when a live vertex drops from degree x to x - 1
        self.gain = [0] + [self.term[x - 1] - self.term[x] for x in range(1, top + 1)]
        self.total = sum(self.term[x] for side in self.deg for x in side)

    def refresh_max(self) -> None:
        """Move each side's max-degree pointer down to its current maximum.

        A side whose max bucket still has members keeps its pointer.  Else
        the buckets above d below ``low[s]`` are drained downward until one
        yields members, and past them the counts of buckets d..1 are read."""
        d = self.d
        for s in (0, 1):
            if self.top_members[s]:
                continue
            x = self.low[s]
            while x > d + 1:
                x -= 1
                if self._drain(s, x):
                    break
            else:
                cnt = self.cnt[s]
                x = min(self.max[s], len(cnt) - 1)
                while x and not cnt[x]:
                    x -= 1
            self.max[s] = x

    def _drain(self, s: int, x: int) -> bool:
        """Empty bucket x > d of side s, the highest not yet drained: its
        entries of degree x become the sorted max bucket, and every other
        entry still above d is registered at its degree, which is below x.
        Returns whether the bucket held a vertex of degree x."""
        queue, deg, d = self.queue[s], self.deg[s], self.d
        order = []
        for j in queue[x]:
            y = deg[j]
            if y == x:
                order.append(j)
            elif y > d:
                queue[y].append(j)
        queue[x] = []
        self.low[s] = x
        if not order:
            return False
        if s and self.covered and not self.cover_of.issuperset(order):
            self.covered.clear()
        order.sort()
        self.top_x[s], self.top_order[s], self.top_members[s] = x, order, set(order)
        self.top_start[s] = 0
        return True

    def _lowest(self, s: int, x: int) -> int:
        """Lowest index of degree x on side s, for a nonempty bucket
        1 <= x <= d; stale heap entries are dropped for good."""
        heap, deg = self.queue[s][x], self.deg[s]
        while deg[heap[0]] != x:
            heappop(heap)
        return heap[0]

    def _lowest_max(self, s: int, accept=None) -> int | None:
        """Lowest member of side s's sorted max bucket that ``accept``
        passes, or None.  Departed members at the front are skipped for good."""
        order, members = self.top_order[s], self.top_members[s]
        k = self.top_start[s]
        while order[k] not in members:
            k += 1
        self.top_start[s] = k
        for k in range(k, len(order)):
            i = order[k]
            if i in members and (accept is None or accept(i)):
                return i
        return None

    def _covers(self, i: int, cand_b: set) -> bool:
        """Whether left vertex i is adjacent to every vertex of ``cand_b``,
        the right max bucket: yes if i is in ``covered``, else by binary
        search in i's input row, and i joins ``covered`` if it does."""
        if i in self.covered:
            return True
        row = self.nbrs[0][i]
        for j in cand_b:  # _in_row inlined: this is the scan's inner loop
            p = bisect_left(row, j)
            if p == len(row) or row[p] != j:
                return False
        if not self.covered or len(cand_b) < len(self.cover_of):
            self.cover_of = set(cand_b)
        self.covered.add(i)
        return True

    def select_pair(self) -> tuple[int, int, int]:
        """(a, b, case): first nonadjacent max-degree pair in ascending scan
        order, else the lexicographically smallest max-degree pair (case 2).

        The scan visits max-degree left vertices in ascending order and stops
        at the first whose neighbourhood misses part of the right max-degree
        bucket; its lowest missed vertex is the pair partner.  Only called
        when no vertex has degree 1..d, so both max buckets lie above d.

        Between live vertices an edge is live iff it is in the input graph,
        so adjacency is read off the input's strictly increasing rows: by
        ``_covers`` for the scan, and by binary search for the partner.
        """
        cand_b = self.top_members[1]
        a = self._lowest_max(0, lambda i: not self._covers(i, cand_b))
        if a is None:
            return self._lowest_max(0), self._lowest_max(1), 2
        row = self.nbrs[0][a]
        return a, self._lowest_max(1, lambda j: not _in_row(row, j)), 1

    def low_degree_vertex(self, d: int) -> tuple[int, int] | None:
        """(side, index) of the vertex of minimum degree in [1, d]; Left
        side first, then ascending index.  None when no such vertex exists."""
        for x in range(1, len(self.cnt[0])):
            for s in (0, 1):
                if self.cnt[s][x]:
                    return s, self._lowest(s, x)
        return None

    def _cut(self, s: int, i: int) -> int:
        """Delete every edge at vertex i of side s and take it out of its
        bucket; returns its former degree.  A neighbour of degree above
        d + 1 outside the max bucket only has its degree lowered."""
        t = 1 - s
        deg, cnt, queue, gain, d = self.deg[t], self.cnt[t], self.queue[t], self.gain, self.d
        top, members = self.top_x[t], self.top_members[t]
        lo = d + 1
        delta = 0
        for j in self.nbrs[s][i]:
            x = deg[j]
            if lo < x != top:
                deg[j] = x - 1
                delta += gain[x]
            elif x:
                y = deg[j] = x - 1
                delta += gain[x]
                if x == top:
                    members.discard(j)
                    if y > d:
                        queue[y].append(j)
                        continue
                if x <= d:
                    cnt[x] -= 1
                if y:
                    cnt[y] += 1
                    heappush(queue[y], j)
        x = self.deg[s][i]
        self.deg[s][i] = 0
        if x == self.top_x[s]:
            self.top_members[s].discard(i)
        elif x <= d:
            self.cnt[s][x] -= 1
        self.edge_count -= x
        self.total += delta
        return x

    def remove_pair(self, a: int, b: int) -> None:
        deg_a = self._cut(0, a)
        deg_b = self._cut(1, b)
        self.total -= self.term[deg_a] + self.term[deg_b]

    def isolate(self, s: int, i: int) -> None:
        deg = self._cut(s, i)
        self.total += self.term[0] - self.term[deg]

    def strengthened(self) -> int:
        """Strengthened bound of the current working graph, as its numerator
        over ``2 * scale``.  With no live vertex, total is 0 and both
        max-degree terms are scale, so it is 0."""
        return self.total + self.term[self.max[0]] + self.term[self.max[1]] - 2 * self.scale


def _peel(work: _WorkingGraph, d: int) -> Iterator[tuple]:
    """Carry out the deterministic rule on ``work`` until it is edgeless,
    yielding each step's PeelStep fields (kind, degrees_before, a, b, v)
    once it is done: the low-degree vertex when d >= 1 and one exists, else
    the selected pair.  A low-degree step's v is its vertex's (side rank,
    index); :func:`_step` turns the fields into a PeelStep.  Both max-degree
    pointers are refreshed once per step."""
    maxes = work.max
    while work.edge_count > 0:
        da, db = maxes
        low = work.low_degree_vertex(d) if d >= 1 else None
        if low is not None:
            s, i = low
            degrees = (da, db, work.deg[s][i], None)
            work.isolate(s, i)
            work.refresh_max()
            yield LOW_DEGREE_EDGE_DELETION, degrees, None, None, low
        else:
            a, b, case = work.select_pair()
            degrees = (da, db, work.deg[0][a], work.deg[1][b])
            work.remove_pair(a, b)
            work.refresh_max()
            yield PAIR_CASE1 if case == 1 else PAIR_CASE2, degrees, a, b, None


def _step(kind: str, degrees: tuple, a, b, v) -> PeelStep:
    """The PeelStep of one field tuple of :func:`_peel`."""
    return PeelStep(kind, degrees, a, b, None if v is None else VertexRef(_SIDES[v[0]], v[1]))


def _is_vertex(w, v) -> bool:
    """Whether a recorded step's ``v`` field w names what :func:`_peel`
    yields as v: exactly a VertexRef of that side rank and index, or None."""
    if v is None or w is None:
        return w is v
    return w.__class__ is VertexRef and w.side is _SIDES[v[0]] and w.index == v[1]


def survivors(g: BipartiteGraph, steps: Iterable[PeelStep]) -> tuple[tuple[int, ...], ...]:
    """(lefts, rights): the vertices of g that no pair step of a peel of g
    removes, ascending per side."""
    kept = (bytearray(b"\1") * g.left_count, bytearray(b"\1") * g.right_count)
    for step in steps:
        if step.kind != LOW_DEGREE_EDGE_DELETION:
            kept[0][step.a] = kept[1][step.b] = 0
    return tuple(tuple(compress(range(len(side)), side)) for side in kept)


def _run_peel(g: BipartiteGraph, d: int):
    work = _WorkingGraph(g, d)
    steps: list[PeelStep] = []
    nums = [work.strengthened()]
    for fields in _peel(work, d):
        steps.append(_step(*fields))
        nums.append(work.strengthened())
    lefts, rights = survivors(g, steps)
    den = 2 * work.scale
    return lefts, rights, tuple(steps), tuple(Fraction(x, den) for x in nums)


def _extract(g: BipartiteGraph, d: int, op: str):
    """(lefts, rights, trace) of the peel of g at d; ``op`` names the caller
    in the error raised on an unbalanced graph."""
    require_balanced(g, op)
    require_nonnegative_d(d)
    lefts, rights, steps, values = _run_peel(g, d)
    trace = PeelTrace(steps=steps, initial_report=bound_report(g, d), bound_values=values)
    return lefts, rights, trace


def find_bihole(g: BipartiteGraph) -> tuple[BiholeWitness, PeelTrace]:
    """Extract a bi-hole of size >= max(floor_bound, ceil(strengthened)).

    Deterministic: equal inputs give equal witnesses and traces.
    """
    lefts, rights, trace = _extract(g, 0, "find_bihole")
    return BiholeWitness(lefts, rights), trace


def find_degenerate(g: BipartiteGraph, d: int) -> tuple[DegenerateWitness, PeelTrace]:
    """Extract a balanced set inducing a d-degenerate subgraph of g.

    At d = 0 this performs exactly the same peel as :func:`find_bihole` (the
    low-degree branch can never fire) and returns the identical vertex sets
    and trace.  The witness carries a min-degree elimination order of the
    induced subgraph as its certificate.
    """
    lefts, rights, trace = _extract(g, d, "find_degenerate")
    order = degeneracy_certificate(g, lefts, rights, d)
    if isinstance(order, StuckCore):
        raise RuntimeError(
            f"extraction produced a witness that is not {d}-degenerate; "
            f"stuck core {order}"
        )
    return DegenerateWitness(lefts, rights, tuple(order)), trace


def _equals(value, num: int, den: int) -> bool:
    """value == num / den; an int or a Fraction is compared by
    cross-multiplication, anything else against a Fraction."""
    if type(value) is int:
        return value * den == num
    if type(value) is Fraction:
        return value.numerator * den == num * value.denominator
    return value == Fraction(num, den)


def check_trace(g: BipartiteGraph, trace: PeelTrace, d: int) -> bool:
    """Replay a trace against the graph it claims to describe.

    The replay runs the peel's own step rule on g at d: every recorded step
    must equal the step the rule takes at that point, kind, vertices and
    degrees alike, and the replay must end on an edgeless working graph, so
    a forged, reordered, truncated or extended trace is rejected.  The
    first difference raises :class:`TraceMismatch` naming both steps; the
    rule's steps are field tuples, and only that message builds a PeelStep
    or a VertexRef.  A recorded ``v`` matches only if it is exactly a
    VertexRef of the replayed vertex's side and index.

    The strengthened bound is recomputed after every replayed step, as an
    int numerator over the working graph's one denominator.  Returns True
    iff that sequence is nondecreasing and the trace's stored claims agree
    with it: ``bound_values`` equals it entry for entry, and
    ``initial_report`` names this graph's side size and this d, with its
    ``strengthened`` value equal to the first replayed value and its
    ``floor_bound`` equal to half the input graph's potential sum, floored.
    A stored int or Fraction is compared by cross-multiplication, so no
    Fraction is built; any other value by ``==`` against a Fraction.
    """
    require_balanced(g, "check_trace")
    require_nonnegative_d(d)
    work = _WorkingGraph(g, d)
    den = 2 * work.scale
    floor = work.total // den
    nums = [work.strengthened()]
    replay = _peel(work, d)
    for pos, step in enumerate(trace.steps):
        expected = next(replay, None)
        if expected is None:
            raise TraceMismatch(f"step {pos}: {step} recorded after the peel ends")
        if (
            step.__class__ is not PeelStep
            or (step.kind, step.degrees_before, step.a, step.b) != expected[:4]
            or not _is_vertex(step.v, expected[4])
        ):
            raise TraceMismatch(
                f"step {pos}: recorded {step} but the rule takes {_step(*expected)}"
            )
        nums.append(work.strengthened())
    if work.edge_count > 0:
        raise TraceMismatch(
            f"trace ends after {len(trace.steps)} steps with {work.edge_count} edges left"
        )
    report = trace.initial_report
    stored = tuple(trace.bound_values)
    return (
        len(stored) == len(nums)
        and all(map(_equals, stored, nums, repeat(den)))
        and (report.n, report.d) == (work.n, d)
        and _equals(report.strengthened, nums[0], den)
        and report.floor_bound == floor
        and all(map(int.__le__, nums, nums[1:]))
    )
