"""Bipartite graphs with two-sided adjacency, text I/O, and seeded generators.

Vertices on each side are indexed 0..count-1.  Adjacency is stored from both
sides as strictly increasing tuples.  A graph is an immutable value of three
fields, its two side sizes and its left rows; its right rows and edge count
are derived from them when it is built, by one routine (``_mirror``).

Edge-list text format
---------------------
* comment lines start with ``#`` and are ignored (blank lines too)
* the first data line is the header ``<left_count> <right_count>``
* every following data line is one edge ``<left_index> <right_index>``
* the two side sizes may add up to at most ``MAX_VERTICES`` (10**7), since
  building the graph allocates per declared vertex before any edge is read;
  a larger header raises :class:`MalformedHeader`
* indices are 0-based; duplicate edges collapse
* LF and CRLF line endings are both accepted; the serializer emits LF only
  and lists edges in lexicographic order, so serialize/parse round-trips
  reproduce the graph exactly
* a malformed or out-of-range edge line raises an error naming its line
  number; when a file has several, the first one in file order is named

The parser reads the lines up to the header one at a time and the edge
lines in bulk, about 64 KiB at a time.  A chunk in the form the serializer
writes (``u v`` per line, one space, LF or CRLF) is decoded, two ints a line,
by one ``json.loads`` call; any other chunk, say one with a comment or a tab,
goes through ``str.split`` and ``map(int, ...)``.  Each chunk's edges go to
the row cutter (``_RowCutter``) before the next chunk is read, so no list of
the whole input's edges is built.  Only a bad line makes the parser walk the
lines one by one, to name it.

``gnp`` draws one SplitMix64 value per potential edge in row-major order,
so a (model, n, seed, p) tuple names one graph on every platform.  SplitMix64
is counter-based (draw k of seed s depends only on s + (k + 1) * gamma mod
2**64; Steele, Lea & Flood, OOPSLA 2014), so the draws are computed in bulk,
many per big-int operation, without changing a bit of the stream.  No model
accepts a side size n with 2n over ``MAX_VERTICES``.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice, repeat
from typing import Iterable, Iterator, NoReturn

from .errors import (
    EmptySide,
    IndexOutOfRange,
    InvalidProbability,
    InvalidSize,
    MalformedEdgeLine,
    MalformedHeader,
    NegativeD,
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
    "GENERATOR_MODELS",
]


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


# The sides by rank: 0 is Left, 1 is Right.
_SIDES = (Side.LEFT, Side.RIGHT)


@dataclass(frozen=True, order=True, slots=True)
class VertexRef:
    """A vertex identified by its side and its 0-based index on that side."""

    side: Side
    index: int

    def json_text(self) -> str:
        """The vertex as a JSON pair: side letter, index."""
        return '["%s", %d]' % (self.side.value, self.index)


_FIRST, _LAST = operator.itemgetter(0), operator.itemgetter(-1)
_ROW_OUT_OF_RANGE = "a left row names a right vertex outside [0, %d)"


@dataclass(frozen=True, slots=True, repr=False)
class BipartiteGraph:
    """An immutable bipartite graph on ``left_count`` + ``right_count`` vertices.

    Built from three fields: the two side sizes and ``left_adj``, where
    ``left_adj[i]`` is the strictly increasing tuple of right-side
    neighbours of left vertex ``i``: a row that is not is stored as
    ``tuple(sorted(set(row)))``, a sorted one as passed.  The other two are
    derived once, on construction: ``right_adj[j]``, the left neighbours of
    right vertex ``j`` (mirroring ``left_adj``, isolated vertices included),
    and ``edge_count``.  A negative side size, or a ``left_adj`` whose
    length is not ``left_count``, raises :class:`InvalidSize`, and a row
    entry outside ``[0, right_count)`` raises :class:`IndexOutOfRange`.
    Equality and the hash read the three fields, so rows of the same edges
    in any order give equal graphs.  The peel binary-searches the rows.
    """

    left_count: int
    right_count: int
    left_adj: tuple[tuple[int, ...], ...]
    right_adj: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    edge_count: int = field(init=False, compare=False)

    def __post_init__(self):
        left_adj, left, right = self.left_adj, self.left_count, self.right_count
        if left < 0 or right < 0:
            raise InvalidSize(f"side sizes must be >= 0, got {left} x {right}")
        if len(left_adj) != left:
            raise InvalidSize(f"{len(left_adj)} left rows for {left} left vertices")
        if not all(all(map(operator.lt, row, row[1:])) for row in left_adj):
            left_adj = tuple(row if all(map(operator.lt, row, row[1:])) else tuple(sorted(set(row)))
                             for row in left_adj)
            object.__setattr__(self, "left_adj", left_adj)
        rows = list(filter(None, left_adj))
        if rows and (min(map(_FIRST, rows)) < 0 or max(map(_LAST, rows)) >= right):
            raise IndexOutOfRange(_ROW_OUT_OF_RANGE % right)
        object.__setattr__(self, "right_adj", _mirror(left_adj, right))
        object.__setattr__(self, "edge_count", sum(map(len, left_adj)))

    # -- basic queries ----------------------------------------------------

    @property
    def is_balanced(self) -> bool:
        return self.left_count == self.right_count

    def max_degree(self, side: Side) -> int:
        adj = self.left_adj if side is Side.LEFT else self.right_adj
        if not adj:
            raise EmptySide(f"max_degree of empty side {side.value}")
        return max(map(len, adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges in lexicographic (left, right) order."""
        for u, nbrs in enumerate(self.left_adj):
            for v in nbrs:
                yield (u, v)

    def complement(self) -> BipartiteGraph:
        """The bipartite complement: cross edges flipped, sides untouched."""
        full = range(self.right_count)
        new_left = tuple(
            tuple(r for r in full if r not in present) for present in map(set, self.left_adj)
        )
        return BipartiteGraph(self.left_count, self.right_count, new_left)

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.left_count}x{self.right_count}, {self.edge_count} edges)"


def require_balanced(g: BipartiteGraph, op: str) -> None:
    """Raise :class:`UnbalancedGraph`, naming ``op``, unless g is n x n."""
    if not g.is_balanced:
        raise UnbalancedGraph(f"{op} needs a balanced graph, got {g.left_count} x {g.right_count}")


def require_nonnegative_d(d: int) -> None:
    """Raise :class:`NegativeD` unless the degeneracy parameter d is >= 0."""
    if d < 0:
        raise NegativeD(f"degeneracy parameter must be >= 0, got {d}")


def build_graph(
    left_count: int, right_count: int, edges: Iterable[tuple[int, int]]
) -> BipartiteGraph:
    """Build a graph from an edge iterable; the constructor sorts and dedupes
    each row.  The edges go to the row cutter 4096 at a time, so an index
    that does not fit raises :class:`IndexOutOfRange` before a row is made
    for every left vertex."""
    rows, edges = _RowCutter(left_count, right_count), iter(edges)
    while batch := [(u, v) for u, v in islice(edges, 4096)]:
        us, vs = zip(*batch)
        rows.add(list(us), list(vs))
    return rows.graph()


def _mirror(
    left_adj: tuple[tuple[int, ...], ...], right_count: int
) -> tuple[tuple[int, ...], ...]:
    """The right-side adjacency of sorted left rows."""
    # Walking u upwards appends to each right list in ascending order.
    right_lists: list[list[int]] = [[] for _ in range(right_count)]
    for u, nbrs in enumerate(left_adj):
        for v in nbrs:
            right_lists[v].append(u)
    return tuple(map(tuple, right_lists))


class _RowCutter:
    """The left rows of an edge stream taken a batch at a time, so no list
    of the whole stream is held.  A batch is its edges' left and right ends.
    One sorted by left end that starts at or past the open row (the one the
    last batch ended in) is cut into rows as it stands, each row's two ends
    checked against ``right`` as it closes.  The first other batch moves the
    rows to a list per left vertex, which it and every later batch append to
    once ``min`` and ``max`` have checked them.  An index these checks catch
    raises :class:`IndexOutOfRange`; the constructor checks every row in full."""

    def __init__(self, left: int, right: int):
        self.left, self.right, self.rows = left, right, []
        self.open: list[int] | None = []  # row len(rows) so far; None after an order break

    def add(self, us: list[int], vs: list[int]) -> None:
        """Take the edges (us[i], vs[i]) of one batch, or raise IndexOutOfRange."""
        left, right, rows = self.left, self.right, self.rows
        if not us:
            return
        # A strided sample rejects most shuffled batches before a full sort.
        if (self.open is not None and len(rows) <= us[0] and us[-1] < left
                and us[::64] == sorted(us[::64]) and us == sorted(us)):
            return self.cut(us, vs, us[-1])
        if not (0 <= min(us) and max(us) < left and 0 <= min(vs) and max(vs) < right):
            u, v = next((u, v) for u, v in zip(us, vs) if not (0 <= u < left and 0 <= v < right))
            raise IndexOutOfRange(f"edge ({u}, {v}) does not fit a {left} x {right} graph")
        if self.open is not None:
            rows[:] = [*map(list, rows), self.open, *([] for _ in range(left - len(rows) - 1))]
            self.open = None
        for u, v in zip(us, vs):
            rows[u].append(v)

    def cut(self, keys: list[int], vs: list[int], last: int, width: int = 1) -> None:
        """Close the rows below ``last`` of a batch of edges (k // width, vs[i]) for
        k = keys[i], sorted by k from the open row on; then open row ``last``."""
        rows, row, right = self.rows, self.open, self.right
        hi = bisect_left(keys, (len(rows) + 1) * width)
        row += vs[:hi]
        for end in range(len(rows) + 1, last + 1):
            if row and not (0 <= row[0] and row[-1] < right):
                raise IndexOutOfRange(_ROW_OUT_OF_RANGE % right)
            rows.append(tuple(row))  # of an exact-size list: no grow-then-shrink
            lo, hi = hi, bisect_left(keys, (end + 1) * width, hi)
            row = vs[lo:hi]
        self.open = row

    def graph(self) -> BipartiteGraph:
        """The graph of the batches taken."""
        if self.open is not None and self.left:
            self.cut([], [], len(self.rows) + 1)  # closes the open row, range-checked
            self.rows += [()] * (self.left - len(self.rows))
        return BipartiteGraph(self.left, self.right, tuple(map(tuple, self.rows)))


# -- text format ------------------------------------------------------------

MAX_VERTICES = 10**7

# The edge lines are tokenised and cut into rows this many characters at a
# time (plus the rest of the line the cut falls in), so the parse holds a few
# thousand lines' tokens and edges at once rather than the whole body's.
_CHUNK = 1 << 16


def _lines(text: str, pos: int, lineno: int) -> Iterator[tuple[int, str, int]]:
    """Yield (lineno, line, end) for each line of text from offset pos on,
    numbered as ``text.split("\\n")`` numbers them; end is the offset of the
    line's newline, or len(text) for the last line."""
    while True:
        end = text.find("\n", pos)
        if end < 0:
            yield lineno, text[pos:], len(text)
            return
        yield lineno, text[pos:end], end
        pos, lineno = end + 1, lineno + 1


def _data_line(raw: str, lineno: int, header: bool) -> tuple[int, int] | None:
    """The two integers on a line, or None for a blank or comment line;
    anything else raises :class:`MalformedHeader` when ``header`` is set,
    else :class:`MalformedEdgeLine`."""
    parts = raw.split()
    if not parts or parts[0].startswith("#"):
        return None
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), int(parts[1])
    except ValueError:
        if header:
            raise MalformedHeader(
                f"line {lineno}: header must be two integers, got {raw.strip()!r}"
            ) from None
        raise MalformedEdgeLine(
            lineno, f"line {lineno}: edge line must be two integers, got {raw.strip()!r}"
        ) from None


def _chunks(text: str, pos: int) -> Iterator[str]:
    """text[pos:] in pieces of whole lines, each at least ``_CHUNK`` characters
    long but the last, with the newline at each cut dropped."""
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK)
        if end < 0:
            end = len(text)
        yield text[pos:end]
        pos = end + 1


# Deleting these characters from a chunk in the form the serializer writes
# leaves its separators: " \n" for every line but the last, then " ".
_NUMBER_CHARS = str.maketrans("", "", "0123456789-\r")


def _decode_chunk(chunk: str) -> list | None:
    """The edge lines of a chunk with one space per line and one LF between
    lines (CRs aside) as u, v, u, v, ... by one ``json.loads`` call, else
    None.  JSON reads a run of digits and ``-`` only as an integer that
    ``int()`` reads alike, and a CR as whitespace, so a line gives two ints."""
    chunk = chunk.rstrip("\n")
    seps = chunk.translate(_NUMBER_CHARS)
    if seps != " \n" * (len(seps) >> 1) + " ":
        return None
    try:
        return json.loads("[" + chunk.replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:  # an empty or ill-formed number, or one over 4300 digits
        return None


def _split_chunk(chunk: str) -> list[int] | None:
    """The edge lines of any chunk as u, v, u, v, ... by ``str.split`` and
    ``int``; None when a line is bad."""
    lines = chunk.split("\n")
    if "#" in chunk:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
        chunk = "\n".join(lines)
    if not set(map(len, map(str.split, lines))) <= {0, 2}:
        return None
    try:
        return list(map(int, chunk.split()))
    except ValueError:
        return None


def _raise_first_bad_line(text: str, pos: int, lineno: int, left: int, right: int) -> NoReturn:
    """Raise the error for the first malformed or out-of-range edge line of
    text from offset pos on, whose first line is numbered lineno."""
    for lineno, raw, _ in _lines(text, pos, lineno):
        edge = _data_line(raw, lineno, header=False)
        if edge is not None and not (0 <= edge[0] < left and 0 <= edge[1] < right):
            raise IndexOutOfRange(
                f"line {lineno}: edge ({edge[0]}, {edge[1]}) does not fit a {left} x {right} graph"
            )
    raise RuntimeError("the bulk edge-line check failed on lines that each pass alone")


def parse_edge_list(text: str) -> BipartiteGraph:
    """Parse the edge-list format described in the module docstring.

    The lines up to the header are read one at a time, so a bad or over-cap
    header fails before anything is allocated.  The edge lines are then
    checked, converted and cut into rows a chunk of lines at a time, by
    builtins rather than a Python loop per line.  When a line is malformed or
    an index does not fit, the lines are walked again one by one and the first
    bad line in file order raises: a :class:`MalformedEdgeLine` carrying its
    number, or an :class:`IndexOutOfRange` naming it.
    """
    for lineno, raw, end in _lines(text, 0, 1):
        header = _data_line(raw, lineno, header=True)
        if header is not None:
            break
    else:
        raise MalformedHeader("missing header line")
    left, right = header
    if left < 0 or right < 0:
        raise MalformedHeader(f"line {lineno}: side sizes must be >= 0")
    if left + right > MAX_VERTICES:
        raise MalformedHeader(
            f"line {lineno}: {left} + {right} vertices exceed the cap of {MAX_VERTICES}"
        )
    rows = _RowCutter(left, right)
    with suppress(IndexOutOfRange):
        for chunk in _chunks(text, end + 1):
            flat = _decode_chunk(chunk) or _split_chunk(chunk)
            if flat is None:
                break
            rows.add(flat[0::2], flat[1::2])
        else:
            return rows.graph()
    _raise_first_bad_line(text, end + 1, lineno + 1, left, right)


def serialize(g: BipartiteGraph) -> str:
    """Canonical text form: header, then edges sorted lexicographically, LF only."""
    lines = [f"{g.left_count} {g.right_count}"]
    for u, nbrs in enumerate(g.left_adj):
        if nbrs:
            pre = f"{u} "
            lines.append(pre + ("\n" + pre).join(map(str, nbrs)))
    return "\n".join(lines) + "\n"


# -- generators --------------------------------------------------------------

_MASK64 = (1 << 64) - 1
# SplitMix64's increment (the golden-ratio gamma) and its two mixer multipliers.
_GAMMA = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 pseudo-random generator (Steele/Lea/Vigna constants).

    Implemented here, rather than taken from a platform library, so that the
    same seed yields bit-identical streams on every platform and Python
    version.  State and outputs are 64-bit unsigned integers.

    The generator is counter-based: draw k (from 0) of ``SplitMix64(s)`` is
    the mixer applied to ``s + (k + 1) * gamma`` mod 2**64, so it can be
    computed without the k draws before it (:meth:`draw`).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @staticmethod
    def draw(seed: int, k: int) -> int:
        """Draw k (from 0) of ``SplitMix64(seed)``, in O(1)."""
        return SplitMix64(seed + k * _GAMMA).next_u64()

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


# Draws per batch of the gnp kernel.  Each batch is one Python int of this
# many 128-bit lanes (8 KiB at 512); larger batches gain little speed and
# raise peak memory.  Fewer draws than this take the next power of two.
_LANES = 512


@functools.lru_cache(maxsize=16)
def _packed(lanes: int) -> tuple[int, int, int, int]:
    """(ONE, MASK, RAMP, STEP) for a batch of ``lanes`` 128-bit lanes: in
    every lane k a 1, the 64-bit mask, (k + 1) * gamma and lanes * gamma,
    the last two mod 2**64."""
    one = int.from_bytes(b"\x01".ljust(16, b"\x00") * lanes, "little")
    ramp = int.from_bytes(
        b"".join(((k + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(lanes)),
        "little",
    )
    return one, one * _MASK64, ramp, (lanes * _GAMMA & _MASK64) * one


def _gnp_batches(seed: int, n: int, threshold: int) -> Iterator[tuple[list[int], list[int]]]:
    """Per batch of draws that keeps an edge, the keys k = i*n + j, ascending, at
    which draw k of ``SplitMix64(seed)`` is below ``threshold`` (0 to 2**64), and j.

    Up to ``_LANES`` draws at a time are held one per 128-bit lane of one
    Python int, so each step of the mixer is one big-int operation.  Every
    lane is masked to 64 bits before each multiply, so its product stays in
    the lane, and the masks also clear the bits a right shift pulls in from
    the lane above.  Bit 64 of (threshold + 2**64 - 1) - z is set exactly
    when the draw z is below the threshold.
    """
    count = n * n
    lanes = min(_LANES, 1 << (count - 1).bit_length())
    one, mask, ramp, step = _packed(lanes)
    upper = (threshold + _MASK64) * one
    state = ((seed & _MASK64) * one + ramp) & mask
    for start in range(0, count, lanes):
        z = ((state ^ (state >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) & mask
        kept = ((upper - z) >> 64) & one
        if kept:
            flags = kept.to_bytes(16 * lanes, "little")[0::16]
            keys = list(compress(range(start, min(start + lanes, count)), flags))
            if keys:  # lanes past count draw too, in the last batch
                yield keys, list(map(operator.mod, keys, repeat(n)))
        state = (state + step) & mask


GENERATOR_MODELS = ("gnp", "complete", "edgeless", "matching", "cycle", "crown")


def check_model(model: str, n: int, p: float | Fraction | None = None) -> None:
    """Raise the error :func:`generate` would raise for these arguments.

    Draws nothing, so a caller can reject a whole sweep before it starts.
    A side size n with 2n over ``MAX_VERTICES`` is refused, since no edge
    list of that graph would parse.
    """
    if n < 1:
        raise InvalidSize(f"model {model!r} needs n >= 1, got {n}")
    if 2 * n > MAX_VERTICES:
        raise InvalidSize(f"model {model!r} needs 2n <= {MAX_VERTICES} vertices, got n = {n}")
    if model not in GENERATOR_MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {GENERATOR_MODELS}")
    if model == "cycle" and n < 2:
        raise InvalidSize("cycle needs n >= 2 to form a 2n-cycle")
    if model == "gnp" and p is None:
        raise InvalidProbability("model 'gnp' needs an edge probability p")
    if p is not None and not 0 <= p <= 1:
        raise InvalidProbability(f"edge probability must be in [0, 1], got {p}")


def generate(
    model: str, n: int, seed: int = 0, p: float | Fraction | None = None
) -> BipartiteGraph:
    """Generate a balanced n x n graph from one of the named models.

    Models: ``gnp`` (each of the n*n edges kept independently with
    probability p), ``complete``, ``edgeless``, ``matching`` (a_i ~ b_i),
    ``cycle`` (the 2n-cycle a_i ~ b_i and a_i ~ b_{(i+1) mod n}, n >= 2),
    and ``crown`` (complete minus the identity matching).  A model is named
    exactly as in ``GENERATOR_MODELS``, lower case.

    ``gnp`` keeps edge (i, j) iff draw k = i*n + j of ``SplitMix64(seed)``
    is below floor(p * 2**64), so a (model, n, seed, p) tuple names one graph
    forever.  The draws are computed in bulk by :func:`_gnp_batches`, which
    the counter property of SplitMix64 allows without changing the stream,
    and each batch's edges are cut into rows as it is drawn.  The other
    models are deterministic, ignore the seed and write their rows directly.
    """
    check_model(model, n, p)
    full = tuple(range(n))
    if model == "complete":
        left_adj = (full,) * n
    elif model == "edgeless":
        left_adj = ((),) * n
    elif model == "matching":
        left_adj = tuple((i,) for i in full)
    elif model == "cycle":
        left_adj = tuple(tuple(sorted((i, (i + 1) % n))) for i in full)
    elif model == "crown":
        left_adj = tuple(full[:i] + full[i + 1 :] for i in full)
    else:  # gnp
        rows = _RowCutter(n, n)
        for keys, vs in _gnp_batches(seed, n, int(Fraction(p) * (1 << 64))):
            rows.cut(keys, vs, keys[-1] // n, n)
        return rows.graph()
    return BipartiteGraph(n, n, left_adj)
