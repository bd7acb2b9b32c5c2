"""End-to-end command-line behaviour: output shapes, exit codes, determinism."""

import io
import json

import pytest

from biholes.bigraph import generate, serialize
from biholes.cli import (
    CSV_HEADER,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_UNBALANCED,
    main,
)

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


def test_extract_degenerate(tmp_path, capsys):
    path = tmp_path / "k33.txt"
    path.write_text(serialize(generate("complete", 3)))
    assert main(["extract", str(path), "--d", "2", "--verify"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 2
    assert len(payload["elimination_order"]) == 4


def test_extract_negative_d(c6_path):
    assert main(["extract", c6_path, "--d", "-1"]) == EXIT_PARSE


# -- oracle --------------------------------------------------------------------


def test_oracle_values(c6_path, tmp_path, capsys):
    assert main(["oracle", c6_path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    path = tmp_path / "k33.txt"
    path.write_text(serialize(generate("complete", 3)))
    assert main(["oracle", str(path), "--d", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_oracle_limit_flag(tmp_path, capsys):
    path = tmp_path / "e5.txt"
    path.write_text(serialize(generate("edgeless", 5)))
    assert main(["oracle", str(path), "--limits", "4"]) == EXIT_TOO_LARGE
    assert main(["oracle", str(path), "--limits", "5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"


def test_oracle_limit_env(tmp_path, monkeypatch, capsys):
    path = tmp_path / "e5.txt"
    path.write_text(serialize(generate("edgeless", 5)))
    monkeypatch.setenv("BIHOLE_ORACLE_MAX", "4")
    assert main(["oracle", str(path)]) == EXIT_TOO_LARGE
    # the flag wins over the environment
    assert main(["oracle", str(path), "--limits", "6"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setenv("BIHOLE_ORACLE_MAX", "many")
    assert main(["oracle", str(path)]) == EXIT_PARSE


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
    ],
)
def test_experiment_rejected_sweep_writes_no_file(tmp_path, bad):
    out = tmp_path / "out.csv"
    assert main(["experiment", "--n-range", "4-5", "--trials", "1", *bad, "-o", str(out)]) == EXIT_PARSE
    assert not out.exists()
