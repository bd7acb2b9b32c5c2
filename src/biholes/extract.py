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
core decomposition, cut down to the buckets this rule reads: a step costs
time in proportion to the input degrees of the vertices it cuts (plus a log
factor for pushes into buckets 1..d and one sort per max bucket), and no
step rescans all n vertices.  Pair selection binary-searches the input's
sorted rows and remembers the left vertices that cover the right max
bucket, so a peel of K_{n,n} makes one search per edge in all.

The strengthened bound of the working graph never decreases along the peel,
and the final edgeless working graph's value equals the witness size, which
is why the witness size always reaches ceil(strengthened) and hence the
floor bound.  The witness is every vertex that no pair step removes.

For d >= 1 the witness is a vertex set whose induced subgraph *in the
original graph* is d-degenerate: edges deleted at a low-degree vertex come
back when the witness is induced, but each such vertex gained at most d
edges, which cannot break d-degeneracy.  A min-degree elimination order of
the induced witness is attached as an independently checkable certificate.

Every step is recorded, in original vertex labels and with the degrees that
justified it, and every bound value.  A trace keeps them as columns (a kind
code per step in a bytearray, six ints per step in an ``array('i')``, int
numerators over one denominator), which ``_peel`` fills and
:func:`check_trace` compares with a replay's, so no object is built per
step.  ``PeelTrace.steps`` and ``bound_values`` read as tuples of PeelSteps
and Fractions, each entry built when it is read.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress, count, repeat
from operator import ne

from .bigraph import _SIDES, BipartiteGraph, VertexRef, require_balanced, require_nonnegative_d
from .bounds import BoundReport, bound_report, rational_json_items
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

# A step's code in a trace's kinds column: pair cases 1 and 2, then a
# low-degree step on side rank 0 or 1.  Each code's JSON takes the step's
# six ints (a, b and the four degrees); a low-degree step's a and b are its
# vertex's index and side rank, and ``%.0s`` writes nothing for the side
# rank and for the -1 that stands for its missing fourth degree.
_KINDS = (PAIR_CASE1, PAIR_CASE2, LOW_DEGREE_EDGE_DELETION, LOW_DEGREE_EDGE_DELETION)
_LOW = 2
_STEP_TEXTS = (
    '{"kind": "pair_case1", "a": %d, "b": %d, "v": null, "degrees_before": [%d, %d, %d, %d]}',
    '{"kind": "pair_case2", "a": %d, "b": %d, "v": null, "degrees_before": [%d, %d, %d, %d]}',
    '{"kind": "low_degree_edge_deletion", "a": null, "b": null, "v": ["L", %d%.0s], '
    '"degrees_before": [%d, %d, %d, null%.0s]}',
    '{"kind": "low_degree_edge_deletion", "a": null, "b": null, "v": ["R", %d%.0s], '
    '"degrees_before": [%d, %d, %d, null%.0s]}',
)


@dataclass(frozen=True, slots=True)
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


def _step(code: int, row: Sequence[int]) -> PeelStep:
    """The PeelStep of a kind code and its six ints."""
    a, b, da, db, x, y = row
    if code < _LOW:
        return PeelStep(_KINDS[code], (da, db, x, y), a, b)
    return PeelStep(LOW_DEGREE_EDGE_DELETION, (da, db, x, None), v=VertexRef(_SIDES[b], a))


class _Columns(Sequence):
    """A read-only sequence kept in columns, whose entries are built when
    read (``_item``).  It equals the tuple of its entries, and a slice of it
    is one."""

    __slots__ = ()

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._item, range(*k.indices(len(self)))))
        return self._item(range(len(self))[k])

    def __eq__(self, other):
        if isinstance(other, tuple):
            return tuple(self) == other
        return self._same(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __add__(self, other):
        return tuple(self) + other if isinstance(other, tuple) else NotImplemented

    def __repr__(self):
        return repr(tuple(self))


class _Steps(_Columns):
    """A trace's steps: ``kinds`` holds a code per step (``_KINDS``) and
    ``fields`` its six ints, a and b then the four degrees, -1 for None."""

    __slots__ = ("kinds", "fields")

    def __init__(self):
        self.kinds, self.fields = bytearray(), array("i")

    @classmethod
    def of(cls, steps: Iterable) -> _Steps:
        """The columns of any steps, each of which must be exactly a
        PeelStep, of a pair's or a low-degree step's shape, with ints that
        fit, which they read back as an equal PeelStep.  Raises
        :class:`TraceMismatch` at the first step that is not."""
        cols = cls()
        for pos, step in enumerate(steps):
            try:
                (da, db, x, y), v = step.degrees_before, step.v
                if v is None:
                    code = (PAIR_CASE1, PAIR_CASE2).index(step.kind)
                    row = [step.a, step.b, da, db, x, y]
                else:
                    s = _SIDES.index(v.side)
                    code, row = _LOW + s, [v.index, s, da, db, x, -1]
                fits = step.__class__ is PeelStep and _step(code, array("i", row)) == step
            except (AttributeError, TypeError, ValueError, OverflowError):
                fits = False
            if not fits:
                raise TraceMismatch(f"step {pos}: recorded {step!r}, which no peel records")
            cols.kinds.append(code)
            cols.fields.fromlist(row)
        return cols

    def __len__(self):
        return len(self.kinds)

    def __iter__(self):
        return map(_step, self.kinds, zip(*[iter(self.fields)] * 6))

    def _item(self, k: int) -> PeelStep:
        return _step(self.kinds[k], self.fields[6 * k : 6 * k + 6])

    def _same(self, other: _Steps) -> bool:
        return self.kinds == other.kinds and self.fields == other.fields

    def piece(self, i: int, j: int) -> str:
        """Steps i to j - 1 as JSON (kind, a, b, v and degrees_before),
        joined by ", " and filled in by one format."""
        texts = map(_STEP_TEXTS.__getitem__, self.kinds[i:j])
        return ", ".join(texts) % tuple(self.fields[6 * i : 6 * j])


class _Values(_Columns):
    """A trace's bound values: int numerators ``nums`` over one ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int):
        self.nums, self.den = nums, den

    @classmethod
    def of(cls, values: Iterable) -> _Values:
        """Any exact rationals (int, Fraction, float, ...: whatever
        ``as_integer_ratio`` takes) over the lcm of their denominators."""
        ratios = [x.as_integer_ratio() for x in values]
        den = math.lcm(*(q for _, q in ratios))
        return cls([p * (den // q) for p, q in ratios], den)

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return map(Fraction, self.nums, repeat(self.den))

    def _item(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den)

    def _same(self, other: _Values) -> bool:
        return self.nums == other.nums if self.den == other.den else tuple(self) == tuple(other)

    def piece(self, i: int, j: int) -> str:
        """Values i to j - 1 as JSON (num, den and decimal), joined by ", "."""
        return rational_json_items(self.nums[i:j], self.den)


@dataclass(frozen=True)
class PeelTrace:
    """Audit log of one extraction run.

    ``bound_values[0]`` is the strengthened bound of the input graph and
    ``bound_values[i]`` the value after step i; the sequence never decreases
    and its last entry equals the witness size.  Built from any sequence of
    PeelSteps and any of exact rationals (ints, Fractions, floats), and kept
    as columns (``_Steps``, ``_Values``) that read as tuples; a step that no
    peel records raises :class:`TraceMismatch`.
    """

    steps: Sequence[PeelStep]
    initial_report: BoundReport
    bound_values: Sequence[Fraction]

    def __post_init__(self):
        if self.steps.__class__ is not _Steps:
            object.__setattr__(self, "steps", _Steps.of(self.steps))
        if self.bound_values.__class__ is not _Values:
            object.__setattr__(self, "bound_values", _Values.of(self.bound_values))


@dataclass(frozen=True)
class BiholeWitness:
    """Balanced vertex sets with no edges between them, in original labels."""

    left_set: tuple[int, ...]
    right_set: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.left_set)


@dataclass(frozen=True)
class DegenerateWitness:
    """Balanced vertex sets inducing a d-degenerate subgraph, with certificate."""

    left_set: tuple[int, ...]
    right_set: tuple[int, ...]
    elimination_order: tuple[VertexRef, ...]

    @property
    def size(self) -> int:
        return len(self.left_set)


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
    strengthened bound is likewise an int, its numerator over ``2 * scale``,
    which the trace keeps.  ``max[s]`` is exact between steps: the
    constructor refreshes it, and ``_peel`` after each step that empties a
    max bucket (at or below d, ``top_members[s]`` stays empty), so the peel
    and the replay stop on ``max[0] == 0``, no edge left, and keep no edge
    count.  The step loop is ``_peel``'s; its helpers are ``_cut``,
    ``refresh_max`` (with ``_drain`` and ``_lowest``) and ``select_pair``
    (with ``_covers``).

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


def _peel(work: _WorkingGraph, steps: _Steps, nums: list[int], limit: int = -1) -> None:
    """Carry out the deterministic rule on ``work`` until it is edgeless, or
    for ``limit`` steps if that is not negative.  Appends to ``nums`` the
    strengthened numerator (over ``2 * scale``) of the graph as it starts,
    then per step the step to ``steps``' columns and the numerator after
    it: the low-degree vertex when d >= 1 and one exists, else the pair.

    The body probes the heaps of buckets 1..d in rule order, popping stale
    heads as ``_lowest`` does, adds back the term of a cut low-degree vertex
    (it stays, at degree 0) and holds the module's one copy of the
    numerator's formula (0 with no live vertex: total is 0 and both max
    terms are scale).  It calls ``refresh_max`` only after a step that
    emptied a max bucket.  Every step deletes an edge, so the peel ends
    within m steps: a pair step whose vertices both have degree 0 would
    repeat forever, and raises RuntimeError before it cuts anything."""
    maxes, deg, members, queue = work.max, work.deg, work.top_members, work.queue
    cut, select_pair, refresh_max = work._cut, work.select_pair, work.refresh_max
    term, scale, den = work.term, work.scale, 2 * work.scale
    add_kind, add_fields, add_num = steps.kinds.append, steps.fields.fromlist, nums.append
    # (side, heap, side's degrees, x) for buckets 1..d: degree, then Left
    # first.  Only _drain replaces a bucket's list, and only above d.
    lows = range(1, min(work.d, len(queue[0]) - 1) + 1)
    probes = [(s, queue[s][x], deg[s], x) for x in lows for s in (0, 1)]
    while True:
        add_num(work.total + term[maxes[0]] + term[maxes[1]] - den)
        if not (maxes[0] and limit):
            return
        limit -= 1
        da, db = maxes
        for s, heap, side_deg, x in probes:
            while heap and side_deg[heap[0]] != x:
                heappop(heap)
            if heap:
                i = heap[0]
                add_kind(_LOW + s)
                add_fields([i, s, da, db, x, -1])
                cut(s, i)
                work.total += scale
                break
        else:
            a, b, case = select_pair()
            x, y = deg[0][a], deg[1][b]
            if not (x or y):
                step = PeelStep(_KINDS[case - 1], (da, db, x, y), a, b)
                raise RuntimeError(f"step {step} would delete no edge")
            add_kind(case - 1)
            add_fields([a, b, da, db, x, y])
            cut(0, a)
            cut(1, b)
        if not (members[0] and members[1]):
            refresh_max()


def survivors(g: BipartiteGraph, steps: _Steps) -> tuple[tuple[int, ...], ...]:
    """(lefts, rights): the vertices of g that no pair step of a peel of g
    removes, ascending per side, read off the steps' columns."""
    kept = (bytearray(b"\1") * g.left_count, bytearray(b"\1") * g.right_count)
    fields = steps.fields
    for code, a, b in zip(steps.kinds, fields[::6], fields[1::6]):
        if code < _LOW:
            kept[0][a] = kept[1][b] = 0
    return tuple(tuple(compress(range(len(side)), side)) for side in kept)


def _extract(g: BipartiteGraph, d: int, op: str):
    """(lefts, rights, trace) of the peel of g at d; ``op`` names the caller
    in the error raised on an unbalanced graph.  d is checked by
    :func:`bound_report`, which runs before the peel."""
    require_balanced(g, op)
    report = bound_report(g, d)
    work = _WorkingGraph(g, d)
    steps, nums = _Steps(), []
    _peel(work, steps, nums)
    lefts, rights = survivors(g, steps)
    return lefts, rights, PeelTrace(steps, report, _Values(nums, 2 * work.scale))


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


def check_trace(g: BipartiteGraph, trace: PeelTrace, d: int) -> bool:
    """Replay a trace against the graph it claims to describe.

    The replay runs the peel's own step rule on g at d to the end, into
    columns of its own, which must equal the trace's: kind, vertices and
    degrees of every step, and the step count, so a forged, reordered,
    truncated or extended trace is rejected.  The first difference raises
    :class:`TraceMismatch` naming both steps (only then is a PeelStep or a
    VertexRef built).

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
    """
    require_balanced(g, "check_trace")
    require_nonnegative_d(d)
    work = _WorkingGraph(g, d)
    den = 2 * work.scale
    floor = work.total // den
    rule, nums = _Steps(), []
    _peel(work, rule, nums)
    recorded = trace.steps
    if recorded != rule:
        # the first position where the columns differ, or the shorter's end
        n = min(len(recorded), len(rule))
        at_kind = next(compress(count(), map(ne, recorded.kinds, rule.kinds)), n)
        at_field = next(compress(count(), map(ne, recorded.fields, rule.fields)), 6 * n)
        pos = min(at_kind, at_field // 6)
        if pos == len(rule):
            raise TraceMismatch(f"step {pos}: {recorded[pos]} recorded after the peel ends")
        if pos < len(recorded):
            raise TraceMismatch(
                f"step {pos}: recorded {recorded[pos]} but the rule takes {rule[pos]}"
            )
        work = _WorkingGraph(g, d)
        _peel(work, _Steps(), [], pos)
        raise TraceMismatch(f"trace ends after {pos} steps with {sum(work.deg[0])} edges left")
    report = trace.initial_report
    pairs = rule.kinds.count(0) + rule.kinds.count(1)
    return (
        trace.bound_values == _Values(nums, den)
        and (report.n, report.d) == (g.left_count, d)
        and report.strengthened == Fraction(nums[0], den)
        and report.floor_bound == floor
        and all(map(int.__le__, nums, nums[1:]))
        and nums[-1] == (g.left_count - pairs) * den
    )
