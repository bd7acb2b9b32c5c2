"""Reference parser: the line-at-a-time edge-list reader, kept as a test oracle.

It reads every line in a Python loop, converting and range-checking each edge
as it goes, so the first bad line raises by construction.  The equivalence
tests compare :func:`biholes.bigraph.parse_edge_list`, which checks and
converts the edge lines in bulk, against it: same graph, or same error type,
message and line number.
"""

from __future__ import annotations

from biholes.bigraph import MAX_VERTICES, BipartiteGraph, build_graph
from biholes.errors import IndexOutOfRange, MalformedEdgeLine, MalformedHeader


def parse_edge_list(text: str) -> BipartiteGraph:
    """Parse the edge-list format described in the module docstring."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if len(parts) != 2:
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            if header is None:
                raise MalformedHeader(
                    f"line {lineno}: header must be two integers, got {raw.strip()!r}"
                ) from None
            raise MalformedEdgeLine(
                lineno, f"line {lineno}: edge line must be two integers, got {raw.strip()!r}"
            ) from None
        if header is None:
            if u < 0 or v < 0:
                raise MalformedHeader(f"line {lineno}: side sizes must be >= 0")
            if u + v > MAX_VERTICES:
                raise MalformedHeader(
                    f"line {lineno}: {u} + {v} vertices exceed the cap of {MAX_VERTICES}"
                )
            header = (u, v)
        elif not 0 <= u < header[0] or not 0 <= v < header[1]:
            raise IndexOutOfRange(
                f"line {lineno}: edge ({u}, {v}) does not fit a {header[0]} x {header[1]} graph"
            )
        else:
            edges.append((u, v))
    if header is None:
        raise MalformedHeader("missing header line")
    return build_graph(header[0], header[1], edges)
