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

The working graph (:class:`_WorkingGraph`) is a bucket queue in the style
of Matula & Beck's smallest-last ordering and Batagelj & Zaversnik's O(m)
core decomposition, cut down to the buckets this rule reads.  A step costs
time in proportion to the input degrees of the vertices it cuts (plus a log
factor for pushes into buckets 1..d and one sort per max bucket), the
drains visit O(n + m) entries over the whole peel, and no step rescans all
n vertices.  Pair selection reads adjacency off the input graph's sorted
rows by binary search and remembers the left vertices found to cover the
right max bucket, so a peel of K_{n,n} makes one search per edge in all.
One generator body, ``_peel``, probes buckets 1..d and updates the bound
inline, and calls helpers only to cut a vertex (``_cut``), to select a pair
(``select_pair``, with ``_covers``), and, after a step that empties a max
bucket, to move a max pointer down (``refresh_max``: ``_drain``, ``_lowest``).

The strengthened bound of the working graph never decreases along the peel,
and the final edgeless working graph's value equals the witness size, which
is why the witness size always reaches ceil(strengthened) and hence the
floor bound.  Every step is recorded (in original vertex labels, with the
degrees that justified it).  The peel collects ``_peel``'s steps, and
:func:`check_trace` replays the whole run through it, requiring every
recorded step to equal the step the rule takes.  The witness is every
vertex that no pair step removes.

For d >= 1 the witness is a vertex set whose induced subgraph *in the
original graph* is d-degenerate: edges deleted at a low-degree vertex come
back when the witness is induced, but each such vertex gained at most d
edges, which cannot break d-degeneracy.  A min-degree elimination order of
the induced witness is attached as an independently checkable certificate.

Each output type writes its JSON text (``json_text``) from format strings,
with no dict per step, bound value or vertex, in the bytes ``json.dumps``
gives the dict form (``tests/reference_output.py``): at 10^5 vertices per
side and 10^6 edges the d = 2 output takes 0.5-0.8 s to write.
PeelStep and VertexRef are slotted, as the peel builds one per step, and
PeelStep's one constructor stores its fields through the slots' setters.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress, repeat
from typing import Iterable, Iterator

from .bigraph import _SIDES, BipartiteGraph, VertexRef, require_balanced, require_nonnegative_d
from .bounds import BoundReport, bound_report, rational_json_texts
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


_PAIR_STEP = '{"kind": "%s", "a": %d, "b": %d, "v": null, "degrees_before": [%d, %d, %d, %d]}'
_LOW_STEP = '{"kind": "%s", "a": null, "b": null, "v": ["%s", %d], "degrees_before": [%d, %d, %d, null]}'


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        kind: str,
        degrees_before: tuple,
        a: int | None = None,
        b: int | None = None,
        v: VertexRef | None = None,
    ):
        # The generated __init__ of a frozen class goes through
        # object.__setattr__ per field; the slots' own setters cost less.
        _set_kind(self, kind)
        _set_degrees(self, degrees_before)
        _set_a(self, a)
        _set_b(self, b)
        _set_v(self, v)

    def json_text(self) -> str:
        """The step as JSON: kind, a, b, v and degrees_before."""
        if self.v is None:
            return _PAIR_STEP % (self.kind, self.a, self.b, *self.degrees_before)
        return _LOW_STEP % (self.kind, self.v.side.value, self.v.index, *self.degrees_before[:3])


_set_kind, _set_degrees, _set_a, _set_b, _set_v = (
    PeelStep.kind.__set__,
    PeelStep.degrees_before.__set__,
    PeelStep.a.__set__,
    PeelStep.b.__set__,
    PeelStep.v.__set__,
)


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

    def json_text(self) -> str:
        """The trace as JSON: the initial report, the steps and the bound values."""
        return '{"initial_report": %s, "steps": [%s], "bound_values": [%s]}' % (
            self.initial_report.json_text(),
            ", ".join(map(PeelStep.json_text, self.steps)),
            ", ".join(rational_json_texts(self.bound_values)),
        )


@dataclass(frozen=True)
class BiholeWitness:
    """Balanced vertex sets with no edges between them, in original labels."""

    left_set: tuple[int, ...]
    right_set: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.left_set)

    def json_text(self) -> str:
        """The witness as JSON: left, right and size."""
        sets = ", ".join(map(str, self.left_set)), ", ".join(map(str, self.right_set))
        return '{"left": [%s], "right": [%s], "size": %d}' % (*sets, self.size)


@dataclass(frozen=True)
class DegenerateWitness:
    """Balanced vertex sets inducing a d-degenerate subgraph, with certificate."""

    left_set: tuple[int, ...]
    right_set: tuple[int, ...]
    elimination_order: tuple[VertexRef, ...]

    @property
    def size(self) -> int:
        return len(self.left_set)

    def json_text(self) -> str:
        """The witness as JSON: a bi-hole's members, then elimination_order."""
        order = ", ".join(map(VertexRef.json_text, self.elimination_order))
        return '%s, "elimination_order": [%s]}' % (BiholeWitness.json_text(self)[:-1], order)


class _WorkingGraph:
    """Mutable peeling state, kept in the original index space.

    Sides are numbered 0 (Left) and 1 (Right), and ``deg[s][i]`` is the live
    degree of vertex i.  A vertex whose edges are cut, or that is removed,
    has degree 0, so the graph's own neighbour tuples are walked, never
    edited: a neighbour of degree 0 has lost the edge already, and any other
    neighbour still has it.  Degrees only fall, so the per-side max-degree
    pointers only move down, and no count of a bucket is kept: the degree
    array tells which entries are live.

    ``queue[s][x]`` is bucket x.  For 1 <= x <= d it is a min-heap of the
    vertices that entered degree x; a vertex enters a degree at most once,
    so an entry is live iff its vertex still has degree x.

    Above d each vertex is registered in one bucket at or above its degree,
    at first that of its input degree; of the edge deletions, only a max
    bucket member's drop registers it, at its new degree.  ``refresh_max``
    drains the buckets below ``max[s]`` (above d, the lowest drained one)
    each once, until one holds a vertex of its own degree: those vertices
    form the max bucket, which never gains members (``top_order[s]``
    descending, ``top_members[s]`` those still in it), and every other entry
    above d is registered again at its degree.  A registration is made at the
    current degree, so each re-registration is paid for by a drop since the
    last one: the drains visit at most n + m entries per side.

    ``total`` is ``scale`` times the sum of potential(deg v, d) over live
    vertices.  ``scale`` is the lcm of x + 1 over d < x <= the initial
    maximum degree, so every potential is a whole multiple of 1/scale and
    the sum is kept exactly as an int, updated per changed degree.  The
    strengthened bound is likewise an int, its numerator over ``2 * scale``;
    the peel turns these into Fractions for ``bound_values``, and the replay
    never does.  ``max[s]`` is exact between steps: the constructor
    refreshes it, and ``_peel`` after each step that empties a max bucket
    (at or below d, ``top_members[s]`` stays empty), so the peel and the
    replay stop on ``max[0] == 0``, no edge left, and keep no edge count.
    The step loop is ``_peel``'s; its helpers are ``_cut``, ``refresh_max``
    (with ``_drain`` and ``_lowest``) and ``select_pair`` (with ``_covers``).

    ``covered`` holds left vertices adjacent to all of ``cover_of``, a copy
    of the right max bucket retaken as a vertex joins an empty memo or after
    the bucket shrank; a right drain leaving ``cover_of`` clears ``covered``.
    """

    def __init__(self, g: BipartiteGraph, d: int):
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
        self.top_order = [[], []]
        self.top_members = [set(), set()]
        # one above every bucket, so that the first refresh drains bucket top
        self.max = [top + 1, top + 1]
        self.refresh_max()
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
        the buckets above d below ``max[s]`` are drained downward until one
        yields members, and past them the heaps of buckets d..1 (none above
        the input's maximum degree) are read until one holds a live vertex."""
        d = self.d
        for s in (0, 1):
            if self.top_members[s]:
                continue
            x = self.max[s]
            while x > d + 1:
                x -= 1
                if self._drain(s, x):
                    break
            else:
                x = min(x, d, len(self.queue[s]) - 1)
                while x and self._lowest(s, x) is None:
                    x -= 1
                self.max[s] = x

    def _drain(self, s: int, x: int) -> bool:
        """Empty bucket x > d of side s, the highest not yet drained, and
        point ``max[s]`` at it: its entries of degree x become the max
        bucket, sorted in descending order, and every other entry still
        above d is registered at its degree, which is below x.  Returns
        whether the bucket held a vertex of degree x."""
        queue, deg, d = self.queue[s], self.deg[s], self.d
        order = []
        for j in queue[x]:
            y = deg[j]
            if y == x:
                order.append(j)
            elif y > d:
                queue[y].append(j)
        queue[x] = []
        self.max[s] = x
        if not order:
            return False
        if s and self.covered and not self.cover_of.issuperset(order):
            self.covered.clear()
        order.sort(reverse=True)
        self.top_order[s], self.top_members[s] = order, set(order)
        return True

    def _lowest(self, s: int, x: int) -> int | None:
        """Lowest index of degree x on side s, 1 <= x <= d, or None; stale
        heap entries are dropped for good, as ``_peel``'s probe does inline."""
        heap, deg = self.queue[s][x], self.deg[s]
        while heap and deg[heap[0]] != x:
            heappop(heap)
        return heap[0] if heap else None

    def _covers(self, i: int, cand_b: set) -> bool:
        """Whether left vertex i is adjacent to every vertex of ``cand_b``,
        the right max bucket: yes if i is in ``covered``, else by binary
        search in i's input row, and i joins ``covered`` if it does."""
        if i in self.covered:
            return True
        row = self.nbrs[0][i]
        for j in cand_b:
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
        when no vertex has degree 1..d, so both max buckets lie above d and
        hold members.  Each bucket is sorted in descending order, so its
        departed lowest members are popped off its end for good.  A
        left vertex of degree ``max[0]`` covers no larger right bucket, so
        then the scan ends at its first member with no search.

        Between live vertices an edge is live iff it is in the input graph,
        so adjacency is read off the input's strictly increasing rows: by
        ``_covers`` for the scan, and by binary search for the partner.
        """
        (order_a, order_b), (members, cand_b) = self.top_order, self.top_members
        while order_a[-1] not in members:
            order_a.pop()
        while order_b[-1] not in cand_b:
            order_b.pop()
        covers = self._covers
        a = order_a[-1]
        if self.max[0] >= len(cand_b):
            for a in reversed(order_a):
                if a in members and not covers(a, cand_b):
                    break
            else:
                return order_a[-1], order_b[-1], 2
        row = self.nbrs[0][a]
        for b in reversed(order_b):
            if b in cand_b:
                p = bisect_left(row, b)
                if p == len(row) or row[p] != b:
                    return a, b, 1

    def _cut(self, s: int, i: int) -> None:
        """Delete every edge at vertex i of side s, and take the vertex out
        of its bucket and its term out of ``total``.  A neighbour of degree
        above d + 1 outside the max bucket only has its degree lowered."""
        t = 1 - s
        deg, queue, gain, d = self.deg[t], self.queue[t], self.gain, self.d
        # at or below d, max[t] is no drained bucket and members is empty
        top, members = self.max[t], self.top_members[t]
        lo = d + 1
        delta = 0
        for j in self.nbrs[s][i]:
            x = deg[j]
            if x > lo and x != top:
                deg[j] = x - 1
                delta += gain[x]
            elif x:
                y = deg[j] = x - 1
                delta += gain[x]
                if x == top:
                    members.discard(j)
                if y > d:
                    queue[y].append(j)
                elif y:
                    heappush(queue[y], j)
        x = self.deg[s][i]
        self.deg[s][i] = 0
        self.top_members[s].discard(i)
        self.total += delta - self.term[x]


def _peel(work: _WorkingGraph) -> Iterator[tuple]:
    """Carry out the deterministic rule on ``work`` until it is edgeless.
    Yields five Nones and the strengthened numerator (over ``2 * scale``)
    of the starting graph, then per step its PeelStep fields (kind,
    degrees_before, a, b, v) and the numerator after it: the low-degree
    vertex when d >= 1 and one exists, else the selected pair.  A
    low-degree step's v is its vertex's (side rank, index); :func:`_step`
    turns the fields into a PeelStep.

    The body probes the heaps of buckets 1..d in rule order, popping stale
    heads as ``_lowest`` does, adds back the term of a cut low-degree vertex
    (it stays, at degree 0) and sums the numerator, the module's one copy
    of the formula (with no live vertex, total is 0 and both max terms are
    scale, so it is 0); it calls ``select_pair``, ``_cut``, and
    ``refresh_max`` only after a step that emptied a max bucket.  Every
    step deletes an edge, so the peel ends within m steps: a step whose
    recorded degrees, deg(a) or deg(v) and deg(b), are all 0 or None would
    repeat forever, and raises RuntimeError before it cuts anything."""
    maxes, deg, members, queue = work.max, work.deg, work.top_members, work.queue
    cut, select_pair, refresh_max = work._cut, work.select_pair, work.refresh_max
    term, scale, den = work.term, work.scale, 2 * work.scale
    # (side, heap, side's degrees, x) for buckets 1..d: degree, then Left
    # first.  Only _drain replaces a bucket's list, and only above d.
    lows = range(1, min(work.d, len(queue[0]) - 1) + 1)
    probes = [(s, queue[s][x], deg[s], x) for x in lows for s in (0, 1)]
    kind = degrees = a = b = v = None
    while True:
        yield kind, degrees, a, b, v, work.total + term[maxes[0]] + term[maxes[1]] - den
        if not maxes[0]:
            return
        da, db = maxes
        for s, heap, side_deg, x in probes:
            while heap and side_deg[heap[0]] != x:
                heappop(heap)
            if heap:
                v = s, heap[0]
                kind, degrees, a, b = LOW_DEGREE_EDGE_DELETION, (da, db, x, None), None, None
                break
        else:
            a, b, case = select_pair()
            kind = PAIR_CASE1 if case == 1 else PAIR_CASE2
            degrees, v = (da, db, deg[0][a], deg[1][b]), None
        if not (degrees[2] or degrees[3]):
            raise RuntimeError(f"step {_step(kind, degrees, a, b, v)} would delete no edge")
        if v is None:
            cut(0, a)
            cut(1, b)
        else:
            cut(*v)
            work.total += scale
        if not (members[0] and members[1]):
            refresh_max()


def _step(kind: str, degrees: tuple, a, b, v) -> PeelStep:
    """The PeelStep of the fields that :func:`_peel` yields."""
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


def _extract(g: BipartiteGraph, d: int, op: str):
    """(lefts, rights, trace) of the peel of g at d; ``op`` names the caller
    in the error raised on an unbalanced graph.  d is checked by
    :func:`bound_report`, which runs before the peel."""
    require_balanced(g, op)
    report = bound_report(g, d)
    work = _WorkingGraph(g, d)
    peel = _peel(work)
    steps: list[PeelStep] = []
    nums = [next(peel)[-1]]
    for kind, degrees, a, b, v, num in peel:
        steps.append(_step(kind, degrees, a, b, v))
        nums.append(num)
    lefts, rights = survivors(g, steps)
    den = 2 * work.scale
    values = tuple(Fraction(x, den) for x in nums)
    return lefts, rights, PeelTrace(steps=tuple(steps), initial_report=report, bound_values=values)


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
    if type(value) in (int, Fraction):
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
    iff that sequence is nondecreasing, its last value equals the side size
    less the number of pair steps (the size of the witness the peel leaves),
    and the trace's stored claims agree with it: ``bound_values`` equals it
    entry for entry, and ``initial_report`` names this graph's side size and
    this d, with its ``strengthened`` value equal to the first replayed
    value and its ``floor_bound`` equal to half the input graph's potential
    sum, floored.  So an accepted trace's witness reaches
    ``ceil(strengthened)``.
    A stored int or Fraction is compared by cross-multiplication, so no
    Fraction is built; any other value by ``==`` against a Fraction.
    """
    require_balanced(g, "check_trace")
    require_nonnegative_d(d)
    work = _WorkingGraph(g, d)
    den = 2 * work.scale
    floor = work.total // den
    replay = _peel(work)
    nums = [next(replay)[-1]]
    pairs = 0
    for pos, step in enumerate(trace.steps):
        expected = next(replay, None)
        if expected is None:
            raise TraceMismatch(f"step {pos}: {step} recorded after the peel ends")
        kind, degrees, a, b, v, num = expected
        if (
            step.__class__ is not PeelStep
            or step.kind != kind
            or step.degrees_before != degrees
            or step.a != a
            or step.b != b
            or not _is_vertex(step.v, v)
        ):
            raise TraceMismatch(
                f"step {pos}: recorded {step} but the rule takes {_step(*expected[:5])}"
            )
        nums.append(num)
        pairs += v is None
    if work.max[0]:
        raise TraceMismatch(
            f"trace ends after {len(trace.steps)} steps with {sum(work.deg[0])} edges left"
        )
    report = trace.initial_report
    stored = tuple(trace.bound_values)
    return (
        len(stored) == len(nums)
        and all(map(_equals, stored, nums, repeat(den)))
        and (report.n, report.d) == (g.left_count, d)
        and _equals(report.strengthened, nums[0], den)
        and report.floor_bound == floor
        and all(map(int.__le__, nums, nums[1:]))
        and nums[-1] == (g.left_count - pairs) * den
    )
