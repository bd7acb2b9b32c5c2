"""End-to-end command-line behaviour: output shapes, exit codes, determinism."""

import contextlib
import decimal
import hashlib
import io
import json
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biholes import cli
from biholes.bigraph import (
    GENERATOR_MODELS,
    SplitMix64,
    build_graph,
    check_model,
    generate,
    serialize,
)
from biholes.bounds import bound_report, rational_json_texts
from biholes.cli import (
    CSV_HEADER,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_UNBALANCED,
    EXIT_VERIFY,
    main,
)
from biholes.errors import InvalidSize, TraceMismatch
from biholes.extract import BiholeWitness, find_bihole
from reference_output import payload as reference_payload
from reference_output import rational_to_json, report_to_json

C6_TEXT = "3 3\n0 0\n0 1\n1 1\n1 2\n2 0\n2 2\n"


@pytest.fixture
def c6_path(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(C6_TEXT)
    return str(path)


# -- bound ---------------------------------------------------------------------


def test_bound_text_output(c6_path, capsys):
    assert main(["bound", c6_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "floor_bound: 1" in out
    assert "strengthened: 1/3" in out
    assert "ceil 1" in out
    assert "average_degree_bound: -1" in out
    assert "size hypothesis holds" in out


def test_bound_json(c6_path, capsys):
    assert main(["bound", c6_path, "--json", "--d", "2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert payload["d"] == 2
    assert payload["floor_bound"] == 3
    assert payload["strengthened"]["num"] == "3"
    assert payload["log_reference"]["eps"]["den"] == "2"


def test_bound_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(C6_TEXT))
    assert main(["bound", "-"]) == EXIT_OK
    assert "floor_bound: 1" in capsys.readouterr().out


def test_bound_custom_eps(c6_path, capsys):
    assert main(["bound", c6_path, "--eps", "1/4"]) == EXIT_OK
    assert "eps = 1/4" in capsys.readouterr().out
    assert main(["bound", c6_path, "--eps", "7/4"]) == EXIT_PARSE


@pytest.mark.parametrize("eps, shown", [("0.25", "1/4"), ("1e-3", "1/1000")])
def test_bound_accepts_decimal_eps(c6_path, capsys, eps, shown):
    assert main(["bound", c6_path, "--eps", eps]) == EXIT_OK
    assert f"(eps = {shown}," in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["1/0", "1e999999999", "1e-999999999"])
def test_bound_rejects_hostile_eps_within_a_second(c6_path, capsys, eps):
    # A child process first: converting 1e999999999 takes minutes where it is
    # not refused, and only a process can be cut off.
    argv = ["bound", c6_path, "--eps", eps]
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "biholes.cli", *argv], capture_output=True, env=env, timeout=10
    )
    assert child.returncode == EXIT_PARSE
    start = time.perf_counter()
    assert main(argv) == EXIT_PARSE
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bound_formats_the_whole_report_before_printing(c6_path, capsys):
    # 1/10**4300 has 4301 digits, one over CPython's int-to-str limit.
    assert main(["bound", c6_path, "--eps", "1e-4300"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# -- extract -------------------------------------------------------------------


def test_extract_witness_json(c6_path, capsys):
    assert main(["extract", c6_path, "--verify"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"left": [2], "right": [1], "size": 1}


def test_extract_trace(c6_path, capsys):
    assert main(["extract", c6_path, "--trace"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    trace = payload["trace"]
    assert [s["kind"] for s in trace["steps"]] == ["pair_case1", "pair_case1"]
    assert trace["bound_values"][0] == {"num": "1", "den": "3", "decimal": "0.333333333333"}
    assert trace["initial_report"]["floor_bound"] == 1


def test_extract_trace_bytes_ignore_the_callers_decimal_context(tmp_path, capsys):
    path = tmp_path / "gnp.txt"
    path.write_text(serialize(generate("gnp", 30, seed=5, p=0.3)))
    argv = ["extract", str(path), "--d", "1", "--trace"]
    assert main(argv) == EXIT_OK
    default = capsys.readouterr().out
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.capitals = 3, decimal.ROUND_DOWN, 0
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == default
    assert '"log_reference": {' in default


def test_extract_degenerate(tmp_path, capsys):
    path = tmp_path / "k33.txt"
    path.write_text(serialize(generate("complete", 3)))
    assert main(["extract", str(path), "--d", "2", "--verify"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 2
    assert len(payload["elimination_order"]) == 4


# SHA-256 of `extract --d D --trace --verify` stdout on K_{120,120} and on
# K_{120,120} less the edge (119, 119), where the covering memo of pair
# selection answers almost every covering test.
NEAR_COMPLETE_DIGESTS = {
    ("complete", "0"): "d691b94e3e321cafdcdc08f43562043acc7090a7cc95e803627af01e3d71f5fa",
    ("complete", "2"): "2a88cb8108343e0a83104398db3b4221d5fc209030054161c413878675d971f7",
    ("less_one_edge", "0"): "35d696a8438c2540baac35750973ec951cb68e02435d112fbe7c60c8d2c5f075",
    ("less_one_edge", "2"): "dfef951994046f8d210039feceb936865790bb56c2daf4bb6e2c86e183e53c5c",
}


@pytest.mark.parametrize("name, d", sorted(NEAR_COMPLETE_DIGESTS))
def test_extract_on_near_complete_graphs_keeps_its_bytes(tmp_path, capsys, name, d):
    n = 120
    edges = [(i, j) for i in range(n) for j in range(n)]
    if name == "less_one_edge":
        edges.remove((n - 1, n - 1))
    path = tmp_path / f"{name}.txt"
    path.write_text(serialize(build_graph(n, n, edges)))
    assert main(["extract", str(path), "--d", d, "--trace", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == NEAR_COMPLETE_DIGESTS[name, d]


def _stdout(argv: list[str], text: str) -> str:
    """stdout of the command ``argv``, which reads the edge list ``text``
    from stdin."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def _first_difference(got: str, want: str) -> str:
    """Where two texts first differ; pytest's own diff of two long strings
    takes minutes."""
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(k - 40, 0)
    return f"first difference at offset {k}: {got[lo : k + 40]!r} != {want[lo : k + 40]!r}"


def _assert_reference_bytes(g, d: int) -> None:
    """extract writes, with and without --trace, the bytes of json.dumps of
    the reference payload, and bound --json those of the reference report."""
    text = serialize(g)
    witness, trace = cli._find(g, d)
    extract = ["extract", "-", "--d", str(d)]
    cases = [
        (extract, reference_payload(witness)),
        (extract + ["--trace"], reference_payload(witness, trace)),
        (["bound", "-", "--d", str(d), "--json"], report_to_json(bound_report(g, d))),
    ]
    for argv, reference in cases:
        got, want = _stdout(argv, text), json.dumps(reference) + "\n"
        if got != want:
            pytest.fail(_first_difference(got, want))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 0.9]),
    seed=st.integers(0, 2**64 - 1),
    d=st.integers(0, 3),
)
def test_extract_writes_the_reference_bytes_on_gnp(n, p, seed, d):
    _assert_reference_bytes(generate("gnp", n, seed=seed, p=p), d)


@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("model, n", [("edgeless", 5), ("complete", 6), ("crown", 7), (None, 0)])
def test_extract_writes_the_reference_bytes_on_named_graphs(model, n, d):
    """The model graphs, and with no model the 0 x 0 graph.  The edgeless
    and 0 x 0 reports have no log reference, the complete and crown ones
    have one."""
    _assert_reference_bytes(build_graph(0, 0, []) if model is None else generate(model, n), d)


@pytest.mark.parametrize("d", range(4))
def test_extract_writes_the_reference_bytes_past_300_bit_denominators(d):
    """The half graph on 250 + 250 vertices (left i adjacent to rights
    0..i) has every degree 1..250, and its bound values' denominators pass
    300 bits."""
    g = build_graph(250, 250, [(i, j) for i in range(250) for j in range(i + 1)])
    values = cli._find(g, d)[1].bound_values
    assert max(v.denominator.bit_length() for v in values) > 300
    texts = rational_json_texts(values)
    assert [json.loads(t) for t in texts] == [rational_to_json(x) for x in values]
    _assert_reference_bytes(g, d)


def test_extract_negative_d(c6_path):
    assert main(["extract", c6_path, "--d", "-1"]) == EXIT_PARSE


def _raise_mismatch(*args):
    raise TraceMismatch("forged")


@pytest.mark.parametrize(
    "d, name, fake, check",
    [
        (0, "check_trace", lambda *args: False, "trace"),
        (0, "check_trace", _raise_mismatch, "trace"),
        (0, "is_bihole", lambda *args: False, "witness"),
        (1, "check_elimination_order", lambda *args: False, "witness"),
    ],
)
def test_extract_verify_failure_exits_4(c6_path, capsys, monkeypatch, d, name, fake, check):
    monkeypatch.setattr(cli, name, fake)
    assert main(["extract", c6_path, "--d", str(d), "--verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failed: failed checks: {check}\n"


def test_extract_verify_checks_floor_bound(c6_path, capsys, monkeypatch):
    """A trace whose floor bound exceeds the witness fails the floor check
    on its own once the replay is taken as passed."""
    real = cli.find_bihole

    def inflated(g):
        witness, trace = real(g)
        report = replace(trace.initial_report, floor_bound=witness.size + 1)
        return witness, replace(trace, initial_report=report)

    monkeypatch.setattr(cli, "find_bihole", inflated)
    monkeypatch.setattr(cli, "check_trace", lambda *args: True)
    assert main(["extract", c6_path, "--verify"]) == EXIT_VERIFY
    assert capsys.readouterr().err == "verification failed: failed checks: floor_bound\n"


def test_verify_ties_the_witness_to_the_trace():
    """A bi-hole that still reaches the floor bound, but is not the set the
    trace's peel left, fails the trace check."""
    g = generate("gnp", 40, seed=3, p=0.1)
    witness, trace = find_bihole(g)
    shrunk = BiholeWitness(witness.left_set[:-1], witness.right_set[:-1])
    assert shrunk.size >= trace.initial_report.floor_bound
    assert cli._failed_checks(g, witness, trace, 0) == []
    assert cli._failed_checks(g, shrunk, trace, 0) == ["trace"]


# -- oracle --------------------------------------------------------------------


def test_oracle_values(c6_path, tmp_path, capsys):
    assert main(["oracle", c6_path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    path = tmp_path / "k33.txt"
    path.write_text(serialize(generate("complete", 3)))
    assert main(["oracle", str(path), "--d", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_oracle_d_defaults_to_zero(c6_path):
    assert cli.build_parser().parse_args(["oracle", c6_path]).d == 0


def test_oracle_limit_flag(tmp_path, capsys):
    path = tmp_path / "e5.txt"
    path.write_text(serialize(generate("edgeless", 5)))
    assert main(["oracle", str(path), "--limits", "4"]) == EXIT_TOO_LARGE
    assert main(["oracle", str(path), "--limits", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"


def _run_under_1gib(argv):
    """Run the CLI in a child process capped at 1 GiB of address space."""
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "biholes.cli", *argv],
        capture_output=True,
        env=env,
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


@pytest.mark.parametrize("d", ["0", "1"])
def test_oracle_refuses_sides_past_its_ceiling_within_a_second(tmp_path, capsys, d):
    # A child process first: where no ceiling holds, the search's tables
    # exhaust the 1 GiB cap and the process dies of a MemoryError.
    path = tmp_path / "g60.txt"
    path.write_text(serialize(generate("gnp", 60, seed=5, p=0.5)))
    argv = ["oracle", str(path), "--limits", "60", "--d", d]
    child = _run_under_1gib(argv)
    assert child.returncode == EXIT_TOO_LARGE, child.stderr.decode()[-500:]
    assert child.stdout == b""
    start = time.perf_counter()
    assert main(argv) == EXIT_TOO_LARGE
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_experiment_leaves_exact_empty_past_the_oracle_ceiling(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["experiment", "--models", "gnp", "--n-range", "60", "--p-grid", "0.5",
            "--d-set", "0,1", "--trials", "1", "--seed", "1", "--oracle-max", "60",
            "-o", str(out)]
    child = _run_under_1gib(argv)
    assert child.returncode == EXIT_OK, child.stderr.decode()[-500:]
    first = out.read_text()
    out.unlink()
    start = time.perf_counter()
    assert main(argv) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert out.read_text() == first
    rows = [line.split(",") for line in first.splitlines()[1:]]
    assert [(row[4], row[9], row[10]) for row in rows] == [("0", "", "true"), ("1", "", "true")]


# -- gen -----------------------------------------------------------------------


def test_gen_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "cycle", "3", str(out)]) == EXIT_OK
    assert out.read_text() == C6_TEXT
    assert main(["gen", "matching", "2", "-"]) == EXIT_OK
    assert capsys.readouterr().out == "2 2\n0 0\n1 1\n"


def test_gen_gnp_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "gnp", "8", "--p", "0.4", "--seed", "99"]
    assert main(args + [str(a)]) == EXIT_OK
    assert main(args + [str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_gnp_needs_p(tmp_path):
    assert main(["gen", "gnp", "4", str(tmp_path / "x.txt")]) == EXIT_PARSE


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_gen_rejects_non_finite_p(capsys, p):
    assert main(["gen", "gnp", "3", "-", "--p", p]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: edge probability must be in [0, 1], got {p}\n"


@pytest.mark.parametrize("model", GENERATOR_MODELS)
@pytest.mark.parametrize("p", ["inf", "-3"])
def test_gen_refuses_a_p_outside_0_1_for_every_model(tmp_path, capsys, model, p):
    out = tmp_path / "g.txt"
    assert main(["gen", model, "2", str(out), "--p", p]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: edge probability must be in [0, 1], got {float(p)}\n"
    assert not out.exists()


@pytest.mark.parametrize("model", GENERATOR_MODELS)
def test_gen_refuses_sizes_no_edge_list_holds_within_a_second(tmp_path, capsys, model):
    # A child process first, capped at 1 GiB of address space and 10 s:
    # where the size is not refused, gnp draws forever and the fixed models
    # allocate per vertex, and only a process can be cut off.
    out = tmp_path / "g.txt"
    argv = ["gen", model, "99999999999999999999", str(out), "--p", "0.5"]
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "biholes.cli", *argv],
        capture_output=True,
        env=env,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert child.returncode == EXIT_PARSE
    start = time.perf_counter()
    assert main(argv) == EXIT_PARSE
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("model", GENERATOR_MODELS)
def test_gen_size_cap_is_the_edge_list_side_cap(model):
    check_model(model, cli.MAX_SIDE, 0.5)
    with pytest.raises(InvalidSize, match="vertices"):
        check_model(model, cli.MAX_SIDE + 1, 0.5)


# -- exit codes on bad input -----------------------------------------------------


def test_exit_code_missing_file():
    assert main(["bound", "/nonexistent/graph.txt"]) == EXIT_PARSE


def test_exit_code_malformed_input(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("3\n")
    assert main(["bound", str(bad_header)]) == EXIT_PARSE
    bad_line = tmp_path / "l.txt"
    bad_line.write_text("2 2\n0 x\n")
    assert main(["bound", str(bad_line)]) == EXIT_PARSE
    out_of_range = tmp_path / "r.txt"
    out_of_range.write_text("2 2\n0 5\n")
    assert main(["bound", str(out_of_range)]) == EXIT_PARSE


def test_exit_code_header_over_the_vertex_cap(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000 1000000000\n0 0\n")
    for args in (["extract", str(huge)], ["bound", str(huge)], ["oracle", str(huge)]):
        assert main(args) == EXIT_PARSE
        assert "cap" in capsys.readouterr().err


def test_exit_code_unbalanced(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("2 3\n0 0\n")
    for argv in (["bound", str(path)], ["extract", str(path)], ["oracle", str(path)]):
        assert main(argv) == EXIT_UNBALANCED


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_bound_rejects_negative_d(c6_path, capsys):
    assert main(["bound", c6_path, "--d", "-1"]) == EXIT_PARSE
    assert "must be >= 0" in capsys.readouterr().err


def test_bound_rejects_bad_eps_on_sparse_graph(tmp_path):
    path = tmp_path / "matching.txt"
    path.write_text(serialize(generate("matching", 4)))
    assert main(["bound", str(path), "--eps", "5"]) == EXIT_PARSE


# -- experiment -------------------------------------------------------------------

EXPERIMENT_ARGS = [
    "experiment",
    "--models", "gnp",
    "--n-range", "4-5",
    "--p-grid", "0.3,0.7",
    "--d-set", "0,1",
    "--trials", "2",
    "--seed", "7",
]


def test_experiment_csv_shape(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(EXPERIMENT_ARGS + ["-o", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 16  # 2 n * 2 p * 2 d * 2 trials
    assert lines[1] == "gnp,4,0.3,15271907765764973299,0,1,2,-0.545454545455,2,2,true"
    assert all(line.endswith(",true") for line in lines[1:])
    summary = capsys.readouterr().out
    assert "rows: 16" in summary and "violations: 0" in summary


def test_experiment_reuses_graphs_across_d(tmp_path):
    out = tmp_path / "sweep.csv"
    main(EXPERIMENT_ARGS + ["-o", str(out)])
    lines = out.read_text().splitlines()[1:]
    seeds = {}
    for line in lines:
        model, n, p, seed, d = line.split(",")[:5]
        seeds.setdefault((n, p, seed), set()).add(d)
    # every graph appears once per d value
    assert all(ds == {"0", "1"} for ds in seeds.values())


def test_experiment_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(EXPERIMENT_ARGS + ["-o", str(a)])
    main(EXPERIMENT_ARGS + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_experiment_stdout_summary_goes_to_stderr(capsys):
    assert main(EXPERIMENT_ARGS[:5] + ["--trials", "1", "--seed", "3", "-o", "-"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("model,n,p,seed")
    assert "rows:" in captured.err and "rows:" not in captured.out


def test_experiment_zero_trials(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["experiment", "--trials", "0", "--seed", "1", "-o", str(out)]) == EXIT_OK
    assert out.read_text().splitlines() == [",".join(CSV_HEADER)]
    assert "rows: 0" in capsys.readouterr().out


def test_experiment_rejects_negative_trials(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["experiment", "--trials", "-1", "--seed", "1", "-o", str(out)]) == EXIT_PARSE
    assert "--trials" in capsys.readouterr().err


def test_experiment_rejects_unknown_model(tmp_path):
    args = ["experiment", "--models", "torus", "--trials", "1", "-o", str(tmp_path / "x.csv")]
    assert main(args) == EXIT_PARSE


@pytest.mark.parametrize(
    "bad",
    [
        ["--trials", "-1"],
        ["--models", "gnp,torus"],
        ["--p-grid", "0.5,1.5"],
        ["--p-grid", "0.5,x"],
        ["--p-grid", ""],
        ["--d-set", "0,-1"],
        ["--models", "matching,cycle", "--n-range", "1-3"],
        ["--models", "Complete"],
    ],
)
def test_experiment_rejected_sweep_writes_no_file(tmp_path, bad):
    out = tmp_path / "out.csv"
    assert main(["experiment", "--n-range", "4-5", "--trials", "1", *bad, "-o", str(out)]) == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize("text", ["5-3", "0", "0-2", "", ","])
def test_experiment_rejects_a_bad_n_range(tmp_path, capsys, text):
    out = tmp_path / "out.csv"
    argv = ["experiment", "--n-range", text, "--trials", "1", "-o", str(out)]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: bad n range {text!r}\n"
    assert not out.exists()


def _reference_cells(args):
    """The sweep's rows as the eager seed-table code listed them: one
    SplitMix64 stream, one draw per (model, n, p, trial) in that order."""
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    ns = cli._parse_n_range(args.n_range)
    ps = [float(x) for x in args.p_grid.split(",") if x.strip()] if args.p_grid else []
    ds = [int(x) for x in args.d_set.split(",") if x.strip()] if args.d_set else [0]
    p_values = {model: ps if model == "gnp" else [None] for model in models}
    master = SplitMix64(args.seed)
    seeds = {
        (model, n, p, trial): master.next_u64()
        for model in models
        for n in ns
        for p in p_values[model]
        for trial in range(args.trials)
    }
    return [
        (model, n, p, seeds[(model, n, p, trial)], d)
        for model in models
        for n in ns
        for p in p_values[model]
        for d in ds
        for trial in range(args.trials)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        EXPERIMENT_ARGS,
        ["experiment", "--models", "gnp,edgeless,cycle", "--n-range", "3,5", "--p-grid", "0.2",
         "--d-set", "2,0", "--trials", "3", "--seed", "-5"],
        ["experiment", "--models", "crown,gnp", "--n-range", "2-4", "--trials", "1",
         "--seed", str(2**64 + 9)],
        ["experiment", "--trials", "0"],
    ],
)
def test_experiment_rows_match_the_eager_seed_table(argv):
    args = cli.build_parser().parse_args(argv + ["-o", "-"])
    assert list(cli._experiment_cells(args)) == _reference_cells(args)


def test_experiment_streams_rows_for_a_huge_trial_count(tmp_path):
    # Under a 400 MB address-space cap, a sweep that stored a seed per trial
    # ended in a MemoryError before writing anything.  Rows are made lazily,
    # so the child is still writing them when it is stopped.
    out = tmp_path / "t.csv"
    argv = ["experiment", "--models", "edgeless", "--n-range", "2",
            "--trials", "10000000000", "-o", str(out)]
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "biholes.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20)),
    )
    try:
        _, err = child.communicate(timeout=3)
    except subprocess.TimeoutExpired:
        child.kill()
        _, err = child.communicate()
    assert child.returncode == -signal.SIGKILL, err.decode()
    assert b"Traceback" not in err and b"MemoryError" not in err
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) >= 2 and lines[1].startswith("edgeless,2,,")


# 5 * 10**6 is the largest side an edge-list header admits for a balanced graph.
@pytest.mark.parametrize("n_range", ["1-10000000000", "4,5000001"])
def test_experiment_refuses_n_over_the_side_cap_within_a_second(tmp_path, capsys, n_range):
    # A child process first, capped at 1 GiB of address space: where the
    # range is not refused it is built as a list, or swept, and only a
    # process can be cut off.
    out = tmp_path / "out.csv"
    argv = ["experiment", "--n-range", n_range, "--trials", "1", "-o", str(out)]
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "biholes.cli", *argv],
        capture_output=True,
        env=env,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert child.returncode == EXIT_PARSE
    start = time.perf_counter()
    assert main(argv) == EXIT_PARSE
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_experiment_rejects_non_finite_p_grid(tmp_path, capsys, p):
    out = tmp_path / "out.csv"
    args = ["experiment", "--n-range", "4", "--p-grid", p, "--trials", "1", "-o", str(out)]
    assert main(args) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: edge probability must be in [0, 1], got {p}\n"
    assert not out.exists()


def test_experiment_leaves_exact_empty_over_the_oracle_limit(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["experiment", "--models", "edgeless", "--n-range", "9", "--d-set", "0,1"]
    assert main(args + ["--trials", "1", "-o", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # the bi-hole oracle takes n = 9; the degenerate one stops at 8
    assert [(row[4], row[9], row[10]) for row in rows] == [("0", "9", "true"), ("1", "", "true")]


def test_experiment_oracle_max_sets_the_limits(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["experiment", "--models", "edgeless", "--n-range", "9", "--d-set", "0", "--trials", "1"]
    assert main(args + ["--oracle-max", "8", "-o", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[9], row[10]) for row in rows] == [("", "true")]
    out.unlink()
    assert main(args + ["--oracle-max", "0", "-o", str(out)]) == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize(
    "name, fake",
    [
        ("check_trace", lambda *args: False),
        ("max_bihole_exact", lambda g, limits: 3),
    ],
)
def test_experiment_marks_failed_rows_unverified(tmp_path, capsys, monkeypatch, name, fake):
    monkeypatch.setattr(cli, name, fake)
    out = tmp_path / "sweep.csv"
    args = ["experiment", "--models", "edgeless", "--n-range", "4", "--trials", "1"]
    assert main(args + ["-o", str(out)]) == EXIT_VERIFY
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",false")
    assert "violations: 1" in capsys.readouterr().out


# -- hostile command lines ----------------------------------------------------------

HOSTILE_FLAGS = [
    "--d", "--eps", "--p", "--seed", "--limits", "--trials",
    "--n-range", "--p-grid", "--d-set", "--models", "--oracle-max",
]
HOSTILE_VALUES = [
    "-1", "0", "1", "2", "1/0", "inf", "nan", "1e999999999", "x", "", ",",
    "0-3", "4,4", "99999999999999999999",
]
# A valid value of these sizes the work, so the huge one is left out.
SIZE_VALUES = HOSTILE_VALUES[:-1]
SIZE_FLAGS = {"--trials", "--n-range"}
# Input files; "@name" in an argv stands for the file, "@missing" for no file.
HOSTILE_FILES = {
    "c6": C6_TEXT,
    "header": "3\n",
    "edge": "2 2\n0 x\n",
    "range": "2 2\n0 5\n",
    "unbalanced": "2 3\n0 0\n",
    "empty": "",
    "zero": "0 0\n",
    "cap": "1000000000 1000000000\n0 0\n",
}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(["bound", "extract", "oracle", "gen", "experiment"]))
    if command == "gen":
        model, n = draw(st.sampled_from(GENERATOR_MODELS)), draw(st.sampled_from(SIZE_VALUES))
        argv = ["gen", model, n, "@out"]
    elif command == "experiment":
        argv = ["experiment", "--n-range", "2", "--trials", "1", "-o", "@out"]
    else:
        argv = [command, "@" + draw(st.sampled_from([*HOSTILE_FILES, "missing"]))]
    for flag in draw(st.lists(st.sampled_from(HOSTILE_FLAGS), max_size=3)):
        argv += [flag, draw(st.sampled_from(SIZE_VALUES if flag in SIZE_FLAGS else HOSTILE_VALUES))]
    return argv


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    for name, text in HOSTILE_FILES.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=300, deadline=1000)
@given(argv=hostile_argv())
@example(argv=["bound", "@c6", "--eps", "1/0"])
@example(argv=["gen", "gnp", "3", "@out", "--p", "inf"])
@example(argv=["experiment", "--n-range", "2", "--trials", "1", "-o", "@out", "--p-grid", "inf"])
def test_hostile_argv_ends_in_a_documented_exit_code(hostile_dir, argv):
    argv = [str(hostile_dir / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_PARSE
            return
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNBALANCED, EXIT_VERIFY, EXIT_TOO_LARGE)
    if code in (EXIT_PARSE, EXIT_UNBALANCED, EXIT_TOO_LARGE):
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
