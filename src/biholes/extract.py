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
per-side integer degree arrays with a count of live vertices per degree,
and a max-degree pointer per side that only moves down, since degrees only
fall.  Deleting an edge is a few integer list updates.  The ascending-order
tie-breaks need ordered buckets only where they are queried: buckets 1..d
are lazy min-heaps, read by the low-degree rule, and a bucket above d is
read only while it is the max bucket, which never gains members, so it is
sorted once, when the pointer reaches it.  At d = 0 no heap is used at all.
The tracked bound is kept as one exact integer numerator, updated by a
precomputed difference for each vertex whose degree changes.  A step
therefore costs time in proportion to the input degrees of the vertices it
cuts (plus a log factor for pushes into buckets 1..d and the one sort per
max bucket), and never rescans all n vertices.  The one extra cost is in
pair selection: each max-degree left vertex visited costs a subset test
bounded by its degree in the input graph, and the scan goes past the first
only when that vertex is adjacent to the whole right max-degree bucket.

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


class _WorkingGraph:
    """Mutable peeling state, kept in the original index space.

    Sides are numbered 0 (Left) and 1 (Right).  ``deg[s][i]`` is the live
    degree of vertex i and ``cnt[s][x]`` the number of live vertices of
    degree x.  A vertex whose edges are cut, or that is removed, has degree
    0, so deleting an edge is a few integer list updates and the graph's
    own neighbour tuples are walked, never edited: a neighbour of degree 0
    has lost the edge already, and any other neighbour still has it.
    Degrees only fall, so a vertex enters each degree at most once and the
    per-side max-degree pointers only move down.

    ``queue[s][x]`` lists the vertices that entered degree x; an entry is
    stale once the vertex's degree is no longer x.  For 1 <= x <= d it is a
    min-heap, read only by ``low_degree_vertex``.  A bucket above d is read
    only while it is the max bucket, and the max bucket never gains
    members, so it is sorted once, when the pointer reaches it:
    ``top_order[s]`` holds its live entrants in ascending order,
    ``top_members[s]`` those still in it, and ``top_start[s]`` the first
    position that may still hold a member.

    ``total`` is ``scale`` times the sum of potential(deg v, d) over live
    vertices.  ``scale`` is the lcm of x + 1 over d < x <= the initial
    maximum degree, so every potential is a whole multiple of 1/scale and
    the sum is kept exactly as an int, updated per changed degree.  The
    strengthened bound is likewise an int, its numerator over ``2 * scale``;
    the peel turns these into Fractions for ``bound_values``, and the replay
    never does.  ``max[s]`` is exact between steps: the constructor and
    ``_peel`` refresh it once after each step.
    """

    def __init__(self, g: BipartiteGraph, d: int):
        self.n = g.left_count
        self.d = d
        self.nbrs = (g.left_adj, g.right_adj)
        # read, never edited: select_pair only tests pairs of live vertices,
        # between which an edge is live iff it is in the input graph
        self.ladj = [set(nbrs) for nbrs in g.left_adj]
        self.deg = ([len(nbrs) for nbrs in g.left_adj], [len(nbrs) for nbrs in g.right_adj])
        top = max(max(self.deg[0], default=0), max(self.deg[1], default=0))
        self.cnt = ([0] * (top + 1), [0] * (top + 1))
        # filled in ascending index order, so each list already is a valid heap
        self.queue = ([[] for _ in range(top + 1)], [[] for _ in range(top + 1)])
        for s in (0, 1):
            cnt, queue = self.cnt[s], self.queue[s]
            for i, x in enumerate(self.deg[s]):
                cnt[x] += 1
                queue[x].append(i)
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
        """Move each side's max-degree pointer down to its current maximum."""
        for s, cnt in enumerate(self.cnt):
            x = self.max[s]
            while x and not cnt[x]:
                x -= 1
            self.max[s] = x

    def _lowest(self, s: int, x: int) -> int:
        """Lowest index of degree x on side s, for a nonempty bucket
        1 <= x <= d; stale heap entries are dropped for good."""
        heap, deg = self.queue[s][x], self.deg[s]
        while deg[heap[0]] != x:
            heappop(heap)
        return heap[0]

    def _sort_max(self, s: int) -> None:
        """Make ``top_*[s]`` describe side s's current max bucket."""
        x = self.max[s]
        if self.top_x[s] == x:
            return
        deg = self.deg[s]
        order = sorted(i for i in self.queue[s][x] if deg[i] == x)
        self.queue[s][x] = []
        self.top_x[s], self.top_order[s], self.top_members[s] = x, order, set(order)
        self.top_start[s] = 0

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

    def select_pair(self) -> tuple[int, int, int]:
        """(a, b, case): first nonadjacent max-degree pair in ascending scan
        order, else the lexicographically smallest max-degree pair (case 2).

        The scan visits max-degree left vertices in ascending order and stops
        at the first whose neighbourhood misses part of the right max-degree
        bucket; its lowest missed vertex is the pair partner.
        """
        self._sort_max(0)
        self._sort_max(1)
        ladj = self.ladj
        cand_b = self.top_members[1]
        a = self._lowest_max(0, lambda i: not cand_b <= ladj[i])
        if a is None:
            return self._lowest_max(0), self._lowest_max(1), 2
        nbrs = ladj[a]
        return a, self._lowest_max(1, lambda j: j not in nbrs), 1

    def low_degree_vertex(self, d: int) -> tuple[int, int] | None:
        """(side, index) of the vertex of minimum degree in [1, d]; Left
        side first, then ascending index.  None when no such vertex exists."""
        for x in range(1, min(d, len(self.cnt[0]) - 1) + 1):
            for s in (0, 1):
                if self.cnt[s][x]:
                    return s, self._lowest(s, x)
        return None

    def _cut(self, s: int, i: int) -> int:
        """Delete every edge at vertex i of side s and take it out of its
        bucket; returns its former degree."""
        t = 1 - s
        deg, cnt, queue, gain = self.deg[t], self.cnt[t], self.queue[t], self.gain
        top_x, members, d = self.top_x[t], self.top_members[t], self.d
        delta = 0
        for j in self.nbrs[s][i]:
            x = deg[j]
            if not x:
                continue
            y = deg[j] = x - 1
            cnt[x] -= 1
            cnt[y] += 1
            if x == top_x:
                members.discard(j)
            if y > d:
                queue[y].append(j)
            elif y:
                heappush(queue[y], j)
            delta += gain[x]
        x = self.deg[s][i]
        self.deg[s][i] = 0
        self.cnt[s][x] -= 1
        if x == self.top_x[s]:
            self.top_members[s].discard(i)
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
        self.cnt[s][0] += 1

    def strengthened(self) -> int:
        """Strengthened bound of the current working graph, as its numerator
        over ``2 * scale``.  With no live vertex, total is 0 and both
        max-degree terms are scale, so it is 0."""
        return self.total + self.term[self.max[0]] + self.term[self.max[1]] - 2 * self.scale


def _peel(work: _WorkingGraph, d: int) -> Iterator[tuple]:
    """Carry out the deterministic rule on ``work`` until it is edgeless,
    yielding each step's PeelStep fields (kind, degrees_before, a, b, v)
    once it is done: the low-degree vertex when d >= 1 and one exists, else
    the selected pair.  Both max-degree pointers are refreshed once per step."""
    maxes = work.max
    while work.edge_count > 0:
        da, db = maxes
        low = work.low_degree_vertex(d) if d >= 1 else None
        if low is not None:
            s, i = low
            degrees = (da, db, work.deg[s][i], None)
            work.isolate(s, i)
            work.refresh_max()
            yield LOW_DEGREE_EDGE_DELETION, degrees, None, None, VertexRef(_SIDES[s], i)
        else:
            a, b, case = work.select_pair()
            degrees = (da, db, work.deg[0][a], work.deg[1][b])
            work.remove_pair(a, b)
            work.refresh_max()
            yield PAIR_CASE1 if case == 1 else PAIR_CASE2, degrees, a, b, None


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
        steps.append(PeelStep(*fields))
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
    rule's steps are field tuples, and only that message builds a PeelStep.

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
        if step.__class__ is not PeelStep or (
            (step.kind, step.degrees_before, step.a, step.b, step.v) != expected
        ):
            raise TraceMismatch(
                f"step {pos}: recorded {step} but the rule takes {PeelStep(*expected)}"
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
