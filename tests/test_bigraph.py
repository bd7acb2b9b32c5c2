"""Graph construction, complements, text round-trips, and generator behaviour."""

import copy
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_gen import generate_gnp as reference_generate_gnp
from reference_parse import parse_edge_list as reference_parse_edge_list

from biholes import bigraph
from biholes.bigraph import (
    MAX_VERTICES,
    BipartiteGraph,
    Side,
    SplitMix64,
    build_graph,
    generate,
    parse_edge_list,
    require_balanced,
    serialize,
)
from biholes.errors import (
    BiholesError,
    EmptySide,
    IndexOutOfRange,
    InvalidProbability,
    InvalidSize,
    MalformedEdgeLine,
    MalformedHeader,
    UnbalancedGraph,
)
from biholes.extract import find_bihole
from biholes.oracle import max_bihole_exact

C6_EDGES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]


def c6() -> BipartiteGraph:
    return build_graph(3, 3, C6_EDGES)


def assert_mirrored(g: BipartiteGraph) -> None:
    """Both adjacency directions sorted, consistent, and counted once."""
    for i, nbrs in enumerate(g.left_adj):
        assert list(nbrs) == sorted(set(nbrs))
        for r in nbrs:
            assert i in g.right_adj[r]
    for j, nbrs in enumerate(g.right_adj):
        assert list(nbrs) == sorted(set(nbrs))
        for l in nbrs:
            assert j in g.left_adj[l]
    assert g.edge_count == sum(len(t) for t in g.left_adj)
    assert g.edge_count == sum(len(t) for t in g.right_adj)


@st.composite
def balanced_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return build_graph(0, 0, [])
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    return build_graph(n, n, edges)


# -- construction -------------------------------------------------------------


def test_build_basic():
    g = c6()
    assert g.left_count == g.right_count == 3
    assert g.edge_count == 6
    assert g.left_adj == ((0, 1), (1, 2), (0, 2))
    assert g.right_adj == ((0, 2), (0, 1), (1, 2))
    assert_mirrored(g)


def test_build_collapses_duplicates():
    g = build_graph(2, 3, [(0, 0), (0, 0)])
    assert g.edge_count == 1


def test_build_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange, match=r"\(2, 0\)"):
        build_graph(2, 3, [(2, 0)])
    with pytest.raises(IndexOutOfRange):
        build_graph(2, 3, [(0, -1)])


def test_build_rejects_negative_sizes():
    with pytest.raises(InvalidSize):
        build_graph(-1, 2, [])
    with pytest.raises(InvalidSize, match=r"^side sizes must be >= 0, got 0 x -5$"):
        BipartiteGraph(0, -5, ())


def test_the_constructor_derives_right_rows_and_edge_count():
    rows = ((1, 2), (), (0, 2))
    g = BipartiteGraph(3, 4, rows)
    assert g.left_adj is rows  # strictly increasing rows are stored as passed
    assert g.right_adj == ((2,), (0,), (0, 2), ())  # right vertex 3 is isolated
    assert g.edge_count == 4
    assert_mirrored(g)
    assert g == build_graph(3, 4, [(2, 2), (0, 1), (2, 0), (0, 2)])
    assert BipartiteGraph(0, 2, ()).right_adj == ((), ())
    with pytest.raises(FrozenInstanceError):
        g.edge_count = 5


def test_the_constructor_takes_the_two_sizes_and_the_left_rows():
    with pytest.raises(TypeError):
        BipartiteGraph(2, 2, ((0,), ()), ((0,), ()), 1)
    with pytest.raises(InvalidSize, match=r"^1 left rows for 2 left vertices$"):
        BipartiteGraph(2, 2, ((0,),))
    with pytest.raises(InvalidSize):
        BipartiteGraph(0, 1, ((0,),))


@pytest.mark.parametrize(
    "rows",
    [((-1,),), ((2,),), ((0, 2),), ((-1, 1),), ((), (1, 5)), ((0,), (-3, 0, 1))],
)
def test_a_row_entry_outside_the_right_side_raises(rows):
    """Neither filed under the wrong right vertex (-1 would index right
    vertex 1) nor a bare IndexError from mirroring."""
    with pytest.raises(IndexOutOfRange, match=r"^a left row names a right vertex outside \[0, 2\)$"):
        BipartiteGraph(len(rows), 2, rows)


def test_an_unsorted_row_with_an_entry_past_the_right_side_raises():
    """An unsorted row is sorted before its ends are checked, so an entry
    inside it is checked too, a negative one from -right_count up included
    (it would index a right vertex from the end)."""
    with pytest.raises(IndexOutOfRange):
        BipartiteGraph(1, 2, ((0, 7, 1),))
    with pytest.raises(IndexOutOfRange, match=r"outside \[0, 3\)$"):
        BipartiteGraph(1, 3, ((2, -1),))
    assert BipartiteGraph(1, 0, ((),)).edge_count == 0
    rows = ((0, 1), (2, 0, 1))
    g = BipartiteGraph(2, 3, rows)
    assert g.left_adj == ((0, 1), (0, 1, 2)) and g.left_adj[0] is rows[0]


def test_a_repeated_row_entry_is_one_edge():
    g = BipartiteGraph(2, 2, ((1, 1), ()))
    assert g.left_adj == ((1,), ()) and g.right_adj == ((), (0,))
    assert g.edge_count == 1
    assert max_bihole_exact(g) == 1


@pytest.mark.parametrize("model", bigraph.GENERATOR_MODELS)
def test_graphs_of_the_same_edges_are_equal_keys(model):
    g = generate(model, 7, seed=3, p=0.4)
    text = serialize(g)
    header, *lines = text.splitlines()
    graphs = [
        g,
        build_graph(7, 7, reversed(list(g.edges()))),
        parse_edge_list(text),
        parse_edge_list("\n".join([header, *reversed(lines)])),  # the unsorted path
        BipartiteGraph(7, 7, g.left_adj),
    ]
    assert all(h == g and hash(h) == hash(g) for h in graphs)
    assert len(set(graphs)) == 1
    assert {h: model for h in graphs}[g] == model
    assert g.complement() != g and g.complement() not in {g: model}


def test_graphs_differing_in_a_side_size_differ():
    assert BipartiteGraph(1, 2, ((),)) != BipartiteGraph(1, 1, ((),))
    assert BipartiteGraph(2, 1, ((), ())) != BipartiteGraph(1, 1, ((),))


def test_max_degree():
    star = build_graph(3, 3, [(0, 0), (0, 1), (0, 2)])
    assert star.max_degree(Side.LEFT) == 3
    assert star.max_degree(Side.RIGHT) == 1
    assert generate("edgeless", 2).max_degree(Side.LEFT) == 0
    with pytest.raises(EmptySide):
        build_graph(0, 3, []).max_degree(Side.LEFT)


def test_require_balanced_names_the_operation():
    require_balanced(c6(), "floor_bound")
    require_balanced(build_graph(0, 0, []), "floor_bound")
    with pytest.raises(UnbalancedGraph, match=r"^floor_bound needs a balanced graph, got 2 x 3$"):
        require_balanced(build_graph(2, 3, []), "floor_bound")


# -- complement ---------------------------------------------------------------


def test_complement_c6_is_matching():
    comp = c6().complement()
    assert sorted(comp.edges()) == [(0, 2), (1, 0), (2, 1)]
    assert_mirrored(comp)


def test_complement_complete_is_edgeless():
    assert generate("complete", 4).complement() == generate("edgeless", 4)


@settings(max_examples=100)
@given(balanced_graphs())
def test_complement_is_involution(g):
    assert g.complement().complement() == g


@settings(max_examples=100)
@given(balanced_graphs())
def test_mirror_consistency_after_edits(g):
    assert_mirrored(g)
    assert_mirrored(g.complement())


# -- text format --------------------------------------------------------------


def test_parse_basic():
    g = parse_edge_list("2 2\n0 0\n1 1\n")
    assert sorted(g.edges()) == [(0, 0), (1, 1)]
    assert parse_edge_list("1 1\n").edge_count == 0


def test_parse_comments_blank_lines_crlf():
    text = "# a matching\r\n\r\n2 2\r\n0 0\r\n# middle\r\n1 1\r\n"
    g = parse_edge_list(text)
    assert sorted(g.edges()) == [(0, 0), (1, 1)]


def test_parse_collapses_duplicate_edges():
    assert parse_edge_list("2 2\n0 0\n0 0\n").edge_count == 1


def test_parse_malformed_header():
    for text in ("", "# only a comment\n", "3\n", "x y\n", "-1 2\n"):
        with pytest.raises(MalformedHeader):
            parse_edge_list(text)


def test_parse_caps_the_header_before_allocating(monkeypatch):
    built = []
    monkeypatch.setattr(bigraph, "_parsed_graph", lambda left, right, edges: built.append(left))
    for text in (f"{MAX_VERTICES // 2} {MAX_VERTICES // 2 + 1}\n", "1000000000 1000000000\n"):
        with pytest.raises(MalformedHeader, match="cap"):
            parse_edge_list(text)
    assert built == []
    parse_edge_list(f"{MAX_VERTICES // 2} {MAX_VERTICES // 2}\n")
    parse_edge_list(f"0 {MAX_VERTICES}\n")
    assert built == [MAX_VERTICES // 2, 0]


def test_parse_malformed_edge_line_carries_lineno():
    with pytest.raises(MalformedEdgeLine) as info:
        parse_edge_list("# c\n2 2\n0 0\n0\n")
    assert info.value.lineno == 4


def test_malformed_edge_line_survives_pickle_and_copy():
    exc = MalformedEdgeLine(4, "line 4: edge line must be two integers, got '0'")
    for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
        assert type(twin) is MalformedEdgeLine
        assert twin.lineno == 4 and str(twin) == str(exc)


def test_parse_edge_out_of_range_names_line():
    with pytest.raises(IndexOutOfRange, match="line 2"):
        parse_edge_list("2 2\n0 5\n")


# Texts that mix every line shape the format has, good and bad: comments,
# blank lines, tabs and other whitespace, int() spellings ("+1", "1_0", "٣"),
# JSON values that are not integers (for the json.loads path), short, long
# and out-of-range lines, and bad headers.
TOKENS = ["0", "1", "2", "3", "-1", "+1", "1_0", "٣", "007", "x", "#", "#c", "9" * 25]
TOKENS += ["null", "true", "NaN", "Infinity", "1.5", "1e3", "-0", "[1]", '"1"', "[" * 3000]
SEPARATORS = [" ", "\t", "  ", " \t", "\x0b", "\u3000"]
LINES = st.one_of(
    st.builds("{1}{0}{2}".format, st.sampled_from(SEPARATORS), st.integers(0, 3), st.integers(0, 3)),
    st.builds(
        lambda sep, tokens: sep.join(tokens),
        st.sampled_from(SEPARATORS),
        st.lists(st.sampled_from(TOKENS), max_size=3),
    ),
    st.sampled_from(["", "  ", "# comment", "\t# indented comment", "#"]),
)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(LINES, max_size=30))
    if draw(st.booleans()):
        header = f"{draw(st.integers(-1, 4))} {draw(st.integers(0, 4))}"
        lines.insert(draw(st.integers(0, min(2, len(lines)))), header)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(parse, text):
    """The graph parse builds from text, or the error it raises."""
    try:
        g = parse(text)
    except BiholesError as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return g.left_count, g.right_count, g.left_adj, g.right_adj, g.edge_count


# Line 2 has three tokens and line 3 one: an even token count overall.
EVEN_TOKENS = "2 2\n0 1 1\n1\n"
# An out-of-range line (20002) in one chunk, a malformed one in a later chunk.
RANGE_THEN_MALFORMED = "3 3\n" + "0 0\n" * 20000 + "0 9\n" + "1 1\n" * 20000 + "x\n"
# A comment line and a CRLF where the first 64 KiB of the body ends.
STRADDLED = "2 2\r\n" + "0 1\r\n" * 13107 + "  # comment\r\n\r\n" + "1 0\r\n" * 9 + "1 1"
# Sorted lines of K_{200,200}'s first 60 rows: over 64 KiB, so two chunks.
SIXTY_ROWS = "200 200\n" + "".join(f"{u} {v}\n" for u in range(60) for v in range(200))


def _repeat_line_at_first_cut(text: str) -> str:
    """text with the line that ends its first default-size chunk of edge
    lines repeated as the first line of the next chunk."""
    cut = text.index("\n", text.index("\n") + 1 + bigraph._CHUNK)
    start = text.rindex("\n", 0, cut) + 1
    return text[: cut + 1] + text[start : cut + 1] + text[cut + 1 :]


# Canonical texts, one space per line, that reach each end-only check of the
# decoder's path: the order of the left indices and of a row, and the two
# ends of each.  The parser must give the reference's graph or error.
CANONICAL_CASES = [
    SIXTY_ROWS + "150 2\n150 1\n",  # a descent inside a row of a later chunk
    _repeat_line_at_first_cut(SIXTY_ROWS),  # a duplicate line across the chunk cut
    "2 2\n0 0\n0 1\n1 0\n1 2\n",  # a right index out of range on the last line
    "2 2\n0 0\n1 1\n2 0\n",  # sorted, with the last left index equal to the count
    "2 2\n-1 0\n0 1\n",  # row 0 would read (0, 1) if the -1 were let in
    "2 2\n0 -1\n0 0\n",
    "2 2\n1 0\n0 1\n",
    "2 2\n-0 1\n1 -0\n",  # JSON and int() both read -0 as 0
]


def canonical_examples(test):
    """Pin every text of CANONICAL_CASES as an explicit example of test."""
    for text in CANONICAL_CASES:
        test = example(text=text)(test)
    return test


@pytest.mark.parametrize("chunk", [1, 7, None])
# No deadline: the two pinned many-chunk texts take tens of milliseconds.
@settings(max_examples=300, deadline=None)
@given(text=edge_list_texts())
@example(text=EVEN_TOKENS)
@example(text="2 2\n0 5\n0\n")
@example(text=RANGE_THEN_MALFORMED)
@example(text=STRADDLED)
@canonical_examples
def test_parse_matches_the_line_reader(chunk, text):
    """Same graph, or same error, as the reference at chunk sizes 1, 7 and
    the default (None)."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(bigraph, "_CHUNK", chunk)
        assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize("body", ["1 0\n0 0\n9 0\n", "0 0\n1 0\n9 0\n", "0 0\n1 0\n1 9\n"])
def test_an_index_that_does_not_fit_builds_no_graph(monkeypatch, body):
    """Shuffled or sorted, an edge list with an index over the header fails
    before build_graph allocates a set per declared vertex."""
    monkeypatch.setattr(bigraph, "build_graph", None)
    with pytest.raises(IndexOutOfRange, match="^line 4: "):
        parse_edge_list("9 9\n" + body)


def test_a_sorted_list_with_a_repeated_line_takes_the_row_cut(monkeypatch):
    monkeypatch.setattr(bigraph, "build_graph", None)
    g = parse_edge_list("2 3\n0 1\n0 1\n0 2\n1 0\n1 0\n")
    assert g.left_adj == ((1, 2), (0,)) and g.edge_count == 3


def test_a_right_index_past_the_header_stops_the_row_cut():
    """A sorted list whose one bad index is a right index in the first row is
    rejected at that row, not after a row is cut per declared left vertex."""
    tracemalloc.start()
    try:
        with pytest.raises(IndexOutOfRange, match="^line 3: "):
            parse_edge_list("1000000 1000000\n0 0\n0 1000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_names_the_first_bad_line_in_file_order():
    with pytest.raises(MalformedEdgeLine, match="^line 2: ") as info:
        parse_edge_list(EVEN_TOKENS)
    assert info.value.lineno == 2
    with pytest.raises(IndexOutOfRange, match="^line 2: "):
        parse_edge_list("2 2\n0 5\n0\n")
    with pytest.raises(IndexOutOfRange, match=r"^line 20002: edge \(0, 9\)"):
        parse_edge_list(RANGE_THEN_MALFORMED)
    assert sorted(parse_edge_list(STRADDLED).edges()) == [(0, 1), (1, 0), (1, 1)]


@st.composite
def canonical_texts(draw):
    """Texts in the form serialize writes, one "u v" per line with a single
    space, but with edges sorted, sorted with duplicates, or in drawn order,
    some out of range, LF or CRLF, with or without a final line end."""
    edges = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40))
    order = draw(st.sampled_from(["unique", "sorted", "drawn"]))
    if order != "drawn":
        edges = sorted(set(edges) if order == "unique" else edges)
    lines = [f"{draw(st.integers(0, 5))} {draw(st.integers(0, 5))}"]
    lines += [f"{u} {v}" for u, v in edges]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@pytest.mark.parametrize("chunk", [1, 7, None])
@settings(max_examples=300)
@given(text=canonical_texts())
@canonical_examples
def test_parse_matches_the_line_reader_on_canonical_text(chunk, text):
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(bigraph, "_CHUNK", chunk)
        assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("2 2\n0 1 null 1 1\n", 2),
        # Five integers keep every null of the decoded chunk in a third place.
        ("2 2\n0 1\n1 1 1 1 1\n", 3),
    ],
)
def test_parse_rejects_lines_that_json_would_decode(text, lineno):
    with pytest.raises(MalformedEdgeLine, match=f"^line {lineno}: ") as info:
        parse_edge_list(text)
    assert info.value.lineno == lineno


@pytest.mark.parametrize(
    "text",
    [
        "2 2\n00 1\n",  # a leading zero: JSON refuses it, int() reads 0
        "2 2\n0 -\n",  # a lone minus: neither reads it
        "2 2\n1 1\n0 1-\n",
    ],
)
def test_chunks_that_json_refuses_parse_as_the_line_reader(text):
    """A chunk that passes the decoder's character check but not
    ``json.loads`` falls back to ``str.split``, and the result is the line
    reader's: the same graph, or an error of the same type and message
    naming the same line (a MalformedEdgeLine for the lone minus)."""
    assert bigraph._decode_chunk(text.partition("\n")[2]) is None
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_serialized_text_takes_the_decoder_and_row_slicing(monkeypatch, chunk, eol):
    """Serializer output never reaches the str.split tokeniser or build_graph,
    so a silent fallback cannot hide a lost speedup."""
    graphs = [generate("gnp", 30, seed=3, p=0.3), generate("complete", 5),
              generate("edgeless", 4), build_graph(0, 0, []), build_graph(2, 3, [(1, 2)]),
              # Empty first and last rows; then the last left and right index only.
              build_graph(3, 3, [(1, 0), (1, 2)]), build_graph(4, 4, [(3, 3)])]

    def refuse(*args):
        raise AssertionError(f"slow path taken on {args[0]!r}")

    monkeypatch.setattr(bigraph, "_split_chunk", refuse)
    monkeypatch.setattr(bigraph, "build_graph", refuse)
    if chunk is not None:
        monkeypatch.setattr(bigraph, "_CHUNK", chunk)
    for g in graphs:
        assert parse_edge_list(serialize(g).replace("\n", eol)) == g


@pytest.mark.parametrize("chunk", [64, None])
@pytest.mark.parametrize("sep", ["\t", "  "])
def test_non_canonical_separators_skip_the_decoder(monkeypatch, chunk, sep):
    """A tab or two spaces between the indices fail the character check, so
    such a chunk goes straight to str.split without a failed json.loads."""
    calls = []
    loads = bigraph.json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(bigraph.json, "loads", counting_loads)
    if chunk is not None:
        monkeypatch.setattr(bigraph, "_CHUNK", chunk)
    g = generate("gnp", 60, seed=4, p=0.3)
    assert parse_edge_list(serialize(g).replace(" ", sep)) == g
    assert calls == []


@pytest.mark.parametrize(
    "form",
    [
        lambda text: text.replace("\n", "\n\n"),  # a blank line after every line
        lambda text: " " + text.replace("\n", "\n "),  # a space at the start of every line
        lambda text: text.replace("\n", " \n"),  # a space at the end of every line
        lambda text: text.replace("\n", " \r\n"),  # the same before a CRLF
    ],
    ids=["blank-lines", "leading-spaces", "trailing-spaces", "trailing-spaces-crlf"],
)
def test_blank_lines_and_edge_spaces_skip_the_decoder(monkeypatch, form):
    """A chunk with other than one space per line cannot decode, so it goes
    straight to str.split without a failed json.loads."""
    calls = []
    loads = bigraph.json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(bigraph.json, "loads", counting_loads)
    g = generate("gnp", 400, seed=4, p=0.5)
    assert parse_edge_list(form(serialize(g))) == g
    assert calls == []


@settings(max_examples=100)
@given(balanced_graphs())
@example(generate("edgeless", 3))
@example(build_graph(2, 3, [(1, 0), (1, 2)]))
def test_serialize_matches_one_line_per_edge(g):
    lines = [f"{g.left_count} {g.right_count}"] + [f"{u} {v}" for u, v in g.edges()]
    assert serialize(g) == "\n".join(lines) + "\n"


def test_serialize_canonical():
    assert serialize(c6()) == "3 3\n0 0\n0 1\n1 1\n1 2\n2 0\n2 2\n"
    assert serialize(build_graph(0, 0, [])) == "0 0\n"


@settings(max_examples=100)
@given(balanced_graphs())
def test_serialize_parse_round_trip(g):
    assert parse_edge_list(serialize(g)) == g


# -- the row-order precondition ---------------------------------------------------
#
# The peel looks up adjacency by binary search in a graph's rows, so every
# constructor must return strictly increasing rows on both sides.


def assert_strictly_increasing_rows(g: BipartiteGraph) -> None:
    for row in g.left_adj + g.right_adj:
        assert all(map(int.__lt__, row, row[1:])), row


@st.composite
def shuffled_edge_lists(draw, max_n=7, balanced=False):
    """(left_count, right_count, edges): distinct edges with some repeated,
    in a random order; n x n when ``balanced`` is set."""
    left = draw(st.integers(1, max_n))
    right = left if balanced else draw(st.integers(1, max_n))
    edge = st.tuples(st.integers(0, left - 1), st.integers(0, right - 1))
    edges = draw(st.lists(edge, unique=True))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    return left, right, draw(st.permutations(edges + repeats))


@settings(max_examples=100)
@given(shuffled_edge_lists())
def test_build_graph_rows_strictly_increase(case):
    assert_strictly_increasing_rows(build_graph(*case))


@settings(max_examples=100)
@given(shuffled_edge_lists(balanced=True))
def test_rows_in_any_order_give_the_graph_of_their_edges(case):
    """Rows filled in edge order, unsorted and with repeats, build the same
    graph, hash and peel as build_graph of the edges."""
    left, right, edges = case
    rows = [[] for _ in range(left)]
    for u, v in edges:
        rows[u].append(v)
    g, expected = BipartiteGraph(left, right, tuple(map(tuple, rows))), build_graph(*case)
    assert_strictly_increasing_rows(g)
    assert g == expected and hash(g) == hash(expected)
    assert (g.right_adj, g.edge_count) == (expected.right_adj, expected.edge_count)
    assert find_bihole(g) == find_bihole(expected)


@settings(max_examples=100)
@given(shuffled_edge_lists(), st.data())
def test_parsed_rows_strictly_increase(case, data):
    """Comments, blank lines, CRLF endings and shuffled, repeated edge lines."""
    left, right, edges = case
    lines = [f"{u} {v}" for u, v in edges]
    for _ in range(data.draw(st.integers(0, 3))):
        extra = data.draw(st.sampled_from(["# note", ""]))
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    g = parse_edge_list(eol.join(["# shuffled", f"{left} {right}", *lines]) + eol)
    assert_strictly_increasing_rows(g)
    assert g == build_graph(left, right, edges)


@settings(max_examples=60)
@given(
    st.sampled_from(bigraph.GENERATOR_MODELS),
    st.integers(2, 12),
    st.integers(0, 2**64 - 1),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_generated_rows_strictly_increase(model, n, seed, p):
    g = generate(model, n, seed=seed, p=p if model == "gnp" else None)
    assert_strictly_increasing_rows(g)
    assert_strictly_increasing_rows(g.complement())


@settings(max_examples=100)
@given(shuffled_edge_lists())
def test_complement_rows_strictly_increase(case):
    assert_strictly_increasing_rows(build_graph(*case).complement())


# -- generators ---------------------------------------------------------------


def test_generate_fixed_models():
    assert generate("complete", 3).edge_count == 9
    assert generate("edgeless", 3).edge_count == 0
    assert sorted(generate("matching", 3).edges()) == [(0, 0), (1, 1), (2, 2)]
    assert generate("cycle", 3) == c6()
    assert generate("cycle", 2) == generate("complete", 2)
    crown = generate("crown", 3)
    assert crown.edge_count == 6
    assert all(i != j for i, j in crown.edges())
    assert crown.complement() == generate("matching", 3)


def test_generate_validation():
    with pytest.raises(InvalidSize):
        generate("cycle", 1)
    with pytest.raises(InvalidSize):
        generate("complete", 0)
    with pytest.raises(InvalidProbability):
        generate("gnp", 3)
    with pytest.raises(InvalidProbability):
        generate("gnp", 3, p=1.5)
    with pytest.raises(InvalidProbability, match=r"got -3$"):
        generate("cycle", 2, p=-3)  # every model refuses a p outside [0, 1]
    for model in ("torus", "GNP", "Complete", " cycle"):  # names are exact
        with pytest.raises(ValueError, match="^unknown model "):
            generate(model, 3, p=0.5)


def test_repr_names_shape_and_edge_count():
    assert repr(c6()) == "BipartiteGraph(3x3, 6 edges)"
    assert repr(build_graph(0, 2, [])) == "BipartiteGraph(0x2, 0 edges)"


@pytest.mark.parametrize("p", [float("inf"), float("-inf"), float("nan")])
def test_generate_rejects_non_finite_p(p):
    with pytest.raises(InvalidProbability, match="must be in"):
        generate("gnp", 3, p=p)


def test_gnp_extremes():
    assert generate("gnp", 4, seed=9, p=0.0) == generate("edgeless", 4)
    assert generate("gnp", 4, seed=9, p=1.0) == generate("complete", 4)


def test_gnp_seed_determinism():
    a = generate("gnp", 6, seed=123, p=0.4)
    b = generate("gnp", 6, seed=123, p=0.4)
    assert a == b
    assert a != generate("gnp", 6, seed=124, p=0.4)


def test_gnp_frozen_stream():
    """The generator's output is pinned: a change here means the PRNG or the
    edge-drawing order changed, which breaks every recorded seed."""
    g = generate("gnp", 4, seed=42, p=0.5)
    assert sorted(g.edges()) == [
        (0, 0), (0, 1), (0, 2), (0, 3),
        (1, 1), (1, 2),
        (2, 0), (2, 2), (2, 3),
        (3, 0), (3, 1), (3, 2), (3, 3),
    ]


def test_splitmix64_pinned_stream():
    """First outputs for seeds 0 and 1234567, cross-checked against a C
    uint64 build of the same algorithm and pinned here so the stream can
    never drift silently."""
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        696566373075308979,
        6557459248624239697,
        1059102056448498034,
    ]
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 12033586665282998430


def test_splitmix64_draw_skips_ahead():
    for seed in (0, 1, -3, 2**64 - 1, 2**70 + 5):
        rng = SplitMix64(seed)
        assert [SplitMix64.draw(seed, k) for k in range(50)] == [rng.next_u64() for _ in range(50)]


def _adjacency(g: BipartiteGraph):
    return g.left_adj, g.right_adj, g.edge_count


# Side sizes whose n*n straddles a multiple of the default 512 lanes
# (484 | 529, 1024 = 2 * 512, 2025 | 2116, 4096 = 8 * 512).
LANE_EDGE_NS = [22, 23, 32, 33, 45, 46, 64]
SEEDS = st.one_of(
    st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**64 - 1, 2**64, 2**64 + 1])
)
PROBABILITIES = st.one_of(
    st.sampled_from([0, 1, 1 - 2**-53, 2**-60, 0.5]),
    st.floats(0, 1),
    st.fractions(0, 1, max_denominator=10**6),
)


@pytest.mark.parametrize("lanes", [1, 3, None])
@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(1, 70), st.sampled_from(LANE_EDGE_NS)),
    seed=SEEDS,
    p=PROBABILITIES,
)
@example(n=64, seed=2**64 - 1, p=1 - 2**-53)
@example(n=23, seed=-1, p=2**-60)
@example(n=1, seed=0, p=1)
def test_gnp_matches_the_per_draw_reference(lanes, n, seed, p):
    """Same graph as the one-call-per-draw reference at 1, 3 and the default
    (None) lanes per batch."""
    with pytest.MonkeyPatch.context() as mp:
        if lanes is not None:
            mp.setattr(bigraph, "_LANES", lanes)
        g = generate("gnp", n, seed, p)
    assert _adjacency(g) == _adjacency(reference_generate_gnp(n, seed, p))


def test_gnp_matches_the_reference_on_a_dense_graph():
    g = generate("gnp", 400, seed=2**64 - 1, p=0.5)
    reference = reference_generate_gnp(400, 2**64 - 1, 0.5)
    assert _adjacency(g) == _adjacency(reference)
    assert serialize(g) == "".join(
        [f"{g.left_count} {g.right_count}\n", *(f"{u} {v}\n" for u, v in g.edges())]
    )

