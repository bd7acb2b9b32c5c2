"""Bipartite graphs with two-sided adjacency, text I/O, and seeded generators.

Vertices on each side are indexed 0..count-1.  Adjacency is stored from both
sides as sorted tuples, so membership tests are O(log deg).  Graph values are
treated as immutable: every edit operation returns a new graph.

Edge-list text format
---------------------
* comment lines start with ``#`` and are ignored (blank lines too)
* the first data line is the header ``<left_count> <right_count>``
* every following data line is one edge ``<left_index> <right_index>``
* indices are 0-based; duplicate edges collapse
* LF and CRLF line endings are both accepted; the serializer emits LF only
  and lists edges in lexicographic order, so serialize/parse round-trips
  reproduce the graph exactly
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptySide,
    IndexOutOfRange,
    InvalidProbability,
    InvalidSize,
    MalformedEdgeLine,
    MalformedHeader,
    UnbalancedGraph,
)

__all__ = [
    "Side",
    "VertexRef",
    "BipartiteGraph",
    "SplitMix64",
    "build_graph",
    "parse_edge_list",
    "serialize",
    "generate",
    "check_model",
    "GENERATOR_MODELS",
]


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True, order=True)
class VertexRef:
    """A vertex identified by its side and its 0-based index on that side."""

    side: Side
    index: int

    def to_json(self) -> list:
        return [self.side.value, self.index]


class BipartiteGraph:
    """An immutable bipartite graph on ``left_count`` + ``right_count`` vertices.

    ``left_adj[i]`` is the sorted tuple of right-side neighbours of left
    vertex ``i`` and ``right_adj[j]`` mirrors it exactly; ``edge_count`` is
    kept consistent with both.  Use :func:`build_graph` to construct one.
    """

    __slots__ = ("left_count", "right_count", "left_adj", "right_adj", "edge_count")

    def __init__(
        self,
        left_count: int,
        right_count: int,
        left_adj: tuple[tuple[int, ...], ...],
        right_adj: tuple[tuple[int, ...], ...],
        edge_count: int,
    ):
        self.left_count = left_count
        self.right_count = right_count
        self.left_adj = left_adj
        self.right_adj = right_adj
        self.edge_count = edge_count

    # -- basic queries ----------------------------------------------------

    @property
    def is_balanced(self) -> bool:
        return self.left_count == self.right_count

    def degree(self, v: VertexRef) -> int:
        if v.side is Side.LEFT:
            if not 0 <= v.index < self.left_count:
                raise IndexOutOfRange(f"left index {v.index} not in [0, {self.left_count})")
            return len(self.left_adj[v.index])
        if not 0 <= v.index < self.right_count:
            raise IndexOutOfRange(f"right index {v.index} not in [0, {self.right_count})")
        return len(self.right_adj[v.index])

    def max_degree(self, side: Side) -> int:
        adj = self.left_adj if side is Side.LEFT else self.right_adj
        if not adj:
            raise EmptySide(f"max_degree of empty side {side.value}")
        return max(len(nbrs) for nbrs in adj)

    def has_edge(self, left: int, right: int) -> bool:
        if not 0 <= left < self.left_count:
            raise IndexOutOfRange(f"left index {left} not in [0, {self.left_count})")
        if not 0 <= right < self.right_count:
            raise IndexOutOfRange(f"right index {right} not in [0, {self.right_count})")
        nbrs = self.left_adj[left]
        pos = bisect_left(nbrs, right)
        return pos < len(nbrs) and nbrs[pos] == right

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges in lexicographic (left, right) order."""
        for u, nbrs in enumerate(self.left_adj):
            for v in nbrs:
                yield (u, v)

    # -- edit operations (each returns a new graph) -----------------------

    def delete_pair(self, a: int, b: int):
        """Remove left vertex ``a`` and right vertex ``b`` with their edges.

        Only defined on balanced graphs, so the result stays balanced.
        Surviving vertices are re-indexed by shifting indices above the
        removed one down by one.  Returns ``(graph, left_map, right_map)``
        where the maps send old surviving indices to new ones, letting
        callers lift vertex sets of the result back to this graph.
        """
        if not self.is_balanced:
            raise UnbalancedGraph(
                f"delete_pair needs a balanced graph, got {self.left_count} x {self.right_count}"
            )
        if not 0 <= a < self.left_count:
            raise IndexOutOfRange(f"left index {a} not in [0, {self.left_count})")
        if not 0 <= b < self.right_count:
            raise IndexOutOfRange(f"right index {b} not in [0, {self.right_count})")
        left_map = {old: old - (old > a) for old in range(self.left_count) if old != a}
        right_map = {old: old - (old > b) for old in range(self.right_count) if old != b}
        new_left = [
            tuple(right_map[r] for r in self.left_adj[old] if r != b)
            for old in range(self.left_count)
            if old != a
        ]
        new_right = [
            tuple(left_map[l] for l in self.right_adj[old] if l != a)
            for old in range(self.right_count)
            if old != b
        ]
        graph = BipartiteGraph(
            self.left_count - 1,
            self.right_count - 1,
            tuple(new_left),
            tuple(new_right),
            sum(len(t) for t in new_left),
        )
        return graph, left_map, right_map

    def delete_incident_edges(self, v: VertexRef) -> BipartiteGraph:
        """Remove every edge incident to ``v``; the vertex itself stays."""
        deg = self.degree(v)  # also validates the index
        if deg == 0:
            return self
        if v.side is Side.LEFT:
            new_left = tuple(
                () if i == v.index else nbrs for i, nbrs in enumerate(self.left_adj)
            )
            new_right = tuple(
                tuple(l for l in nbrs if l != v.index) for nbrs in self.right_adj
            )
        else:
            new_left = tuple(
                tuple(r for r in nbrs if r != v.index) for nbrs in self.left_adj
            )
            new_right = tuple(
                () if j == v.index else nbrs for j, nbrs in enumerate(self.right_adj)
            )
        return BipartiteGraph(
            self.left_count, self.right_count, new_left, new_right, self.edge_count - deg
        )

    def complement(self) -> BipartiteGraph:
        """The bipartite complement: cross edges flipped, sides untouched."""
        full = range(self.right_count)
        new_left = []
        for nbrs in self.left_adj:
            present = set(nbrs)
            new_left.append(tuple(r for r in full if r not in present))
        new_right = []
        for nbrs in self.right_adj:
            present = set(nbrs)
            new_right.append(tuple(l for l in range(self.left_count) if l not in present))
        edge_count = self.left_count * self.right_count - self.edge_count
        return BipartiteGraph(
            self.left_count, self.right_count, tuple(new_left), tuple(new_right), edge_count
        )

    def induced(self, left_subset: Iterable[int], right_subset: Iterable[int]) -> BipartiteGraph:
        """Induced subgraph on the given index sets, re-indexed in sorted order."""
        lefts = sorted(set(left_subset))
        rights = sorted(set(right_subset))
        for l in lefts:
            if not 0 <= l < self.left_count:
                raise IndexOutOfRange(f"left index {l} not in [0, {self.left_count})")
        for r in rights:
            if not 0 <= r < self.right_count:
                raise IndexOutOfRange(f"right index {r} not in [0, {self.right_count})")
        lpos = {old: new for new, old in enumerate(lefts)}
        rpos = {old: new for new, old in enumerate(rights)}
        new_left = tuple(
            tuple(rpos[r] for r in self.left_adj[old] if r in rpos) for old in lefts
        )
        new_right = tuple(
            tuple(lpos[l] for l in self.right_adj[old] if l in lpos) for old in rights
        )
        return BipartiteGraph(
            len(lefts), len(rights), new_left, new_right, sum(len(t) for t in new_left)
        )

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.left_count == other.left_count
            and self.right_count == other.right_count
            and self.left_adj == other.left_adj
        )

    def __hash__(self) -> int:
        return hash((self.left_count, self.right_count, self.left_adj))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph({self.left_count}x{self.right_count}, "
            f"{self.edge_count} edges)"
        )


def build_graph(
    left_count: int, right_count: int, edges: Iterable[tuple[int, int]]
) -> BipartiteGraph:
    """Build a graph from an edge iterable, deduplicating as it goes."""
    if left_count < 0 or right_count < 0:
        raise InvalidSize(f"side sizes must be >= 0, got {left_count} x {right_count}")
    left_sets: list[set[int]] = [set() for _ in range(left_count)]
    for u, v in edges:
        if not 0 <= u < left_count or not 0 <= v < right_count:
            raise IndexOutOfRange(
                f"edge ({u}, {v}) does not fit a {left_count} x {right_count} graph"
            )
        left_sets[u].add(v)
    right_sets: list[set[int]] = [set() for _ in range(right_count)]
    for u, nbrs in enumerate(left_sets):
        for v in nbrs:
            right_sets[v].add(u)
    left_adj = tuple(tuple(sorted(s)) for s in left_sets)
    right_adj = tuple(tuple(sorted(s)) for s in right_sets)
    return BipartiteGraph(
        left_count, right_count, left_adj, right_adj, sum(len(t) for t in left_adj)
    )


# -- text format ------------------------------------------------------------


def parse_edge_list(text: str) -> BipartiteGraph:
    """Parse the edge-list format described in the module docstring."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise MalformedHeader(
                    f"line {lineno}: header must be two integers, got {line!r}"
                )
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise MalformedHeader(
                    f"line {lineno}: header must be two integers, got {line!r}"
                ) from None
            if header[0] < 0 or header[1] < 0:
                raise MalformedHeader(f"line {lineno}: side sizes must be >= 0")
            continue
        if len(parts) != 2:
            raise MalformedEdgeLine(
                lineno, f"line {lineno}: edge line must be two integers, got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedEdgeLine(
                lineno, f"line {lineno}: edge line must be two integers, got {line!r}"
            ) from None
        if not 0 <= u < header[0] or not 0 <= v < header[1]:
            raise IndexOutOfRange(
                f"line {lineno}: edge ({u}, {v}) does not fit a "
                f"{header[0]} x {header[1]} graph"
            )
        edges.append((u, v))
    if header is None:
        raise MalformedHeader("missing header line")
    return build_graph(header[0], header[1], edges)


def serialize(g: BipartiteGraph) -> str:
    """Canonical text form: header, then edges sorted lexicographically, LF only."""
    lines = [f"{g.left_count} {g.right_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- generators --------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele/Lea/Vigna constants).

    Implemented here, rather than taken from a platform library, so that the
    same seed yields bit-identical streams on every platform and Python
    version.  State and outputs are 64-bit unsigned integers.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4B7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


GENERATOR_MODELS = ("gnp", "complete", "edgeless", "matching", "cycle", "crown")


def check_model(model: str, n: int, p: float | Fraction | None = None) -> None:
    """Raise the error :func:`generate` would raise for these arguments.

    Draws nothing, so a caller can reject a whole sweep before it starts.
    """
    if n < 1:
        raise InvalidSize(f"model {model!r} needs n >= 1, got {n}")
    name = model.lower()
    if name not in GENERATOR_MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {GENERATOR_MODELS}")
    if name == "cycle" and n < 2:
        raise InvalidSize("cycle needs n >= 2 to form a 2n-cycle")
    if name == "gnp":
        if p is None:
            raise InvalidProbability("model 'gnp' needs an edge probability p")
        if not 0 <= Fraction(p) <= 1:
            raise InvalidProbability(f"edge probability must be in [0, 1], got {p}")


def generate(
    model: str, n: int, seed: int = 0, p: float | Fraction | None = None
) -> BipartiteGraph:
    """Generate a balanced n x n graph from one of the named models.

    Models: ``gnp`` (each of the n*n edges kept independently with
    probability p), ``complete``, ``edgeless``, ``matching`` (a_i ~ b_i),
    ``cycle`` (the 2n-cycle a_i ~ b_i and a_i ~ b_{(i+1) mod n}, n >= 2),
    and ``crown`` (complete minus the identity matching).

    ``gnp`` draws one SplitMix64 value per potential edge in row-major
    order and keeps the edge iff the draw is below floor(p * 2**64), so a
    (model, n, seed, p) tuple names one graph forever.  The other models
    are deterministic and ignore the seed.
    """
    check_model(model, n, p)
    name = model.lower()
    if name == "complete":
        edges = [(i, j) for i in range(n) for j in range(n)]
    elif name == "edgeless":
        edges = []
    elif name == "matching":
        edges = [(i, i) for i in range(n)]
    elif name == "cycle":
        edges = [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
    elif name == "crown":
        edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:  # gnp
        threshold = int(Fraction(p) * (1 << 64))
        rng = SplitMix64(seed)
        edges = [
            (i, j) for i in range(n) for j in range(n) if rng.next_u64() < threshold
        ]
    return build_graph(n, n, edges)
