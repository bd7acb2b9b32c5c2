"""A negative degeneracy parameter fails fast, with one exception type from
every public function that takes d and one ``error:`` line from the CLI."""

import pytest

from biholes import bounds
from biholes.bigraph import generate, serialize
from biholes.cli import EXIT_PARSE, main
from biholes.errors import NegativeD
from biholes.extract import check_trace, find_bihole, find_degenerate
from biholes.oracle import max_degenerate_exact

G = generate("gnp", 5, seed=1, p=0.5)

CALLS = {
    "caro_wei_sum": lambda d: bounds.caro_wei_sum(G, d),
    "bound_report": lambda d: bounds.bound_report(G, d),
    "find_degenerate": lambda d: find_degenerate(G, d),
    "check_trace": lambda d: check_trace(G, find_bihole(G)[1], d),
    "max_degenerate_exact": lambda d: max_degenerate_exact(G, d),
}


@pytest.mark.parametrize("d", [-1, -2, -3])
@pytest.mark.parametrize("name", CALLS)
def test_negative_d_raises(name, d):
    with pytest.raises(NegativeD, match=f"^degeneracy parameter must be >= 0, got {d}$"):
        CALLS[name](d)


@pytest.mark.parametrize("command", ["bound", "extract", "oracle"])
def test_cli_negative_d_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "g.txt"
    path.write_text(serialize(G))
    assert main([command, str(path), "--d", "-1"]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: degeneracy parameter must be >= 0, got -1\n"


@pytest.mark.parametrize("name", CALLS)
def test_each_path_checks_d_once(monkeypatch, name):
    """Every module's copy of the check is counted: a call makes one."""
    from biholes import extract, oracle

    trace = find_bihole(G)[1]  # made before counting, for check_trace
    calls = []
    check = bounds.require_nonnegative_d
    for module in (bounds, extract, oracle):
        monkeypatch.setattr(module, "require_nonnegative_d", lambda d: calls.append(d) or check(d))
    if name == "check_trace":
        assert check_trace(G, trace, 0)
    else:
        CALLS[name](0)
    assert calls == [0]


def test_experiment_negative_d_is_the_same_error_line(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["experiment", "--n-range", "4", "--trials", "1", "--d-set", "0,-1", "-o", str(out)]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == "error: degeneracy parameter must be >= 0, got -1\n"
    assert not out.exists()
