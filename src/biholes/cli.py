"""Command-line interface.

Subcommands::

    bihole bound      INPUT [--d D] [--eps F] [--json]
    bihole extract    INPUT [--d D] [--trace] [--verify]
    bihole oracle     INPUT [--d D] [--limits N]
    bihole gen        MODEL N OUTPUT [--p P] [--seed S]
    bihole experiment --models M --n-range R --p-grid G --d-set D
                      --trials T --seed S [--oracle-max N] -o OUT.csv

INPUT is a path to an edge-list file, or ``-`` for stdin.  Exit codes are a
stable contract: 0 success, 2 parse or usage error, 3 unbalanced input,
4 verification failure, 5 instance over oracle limits, 6 stdout could not
be written.  A rejected input never ends in a traceback: it prints one
``error: ...`` line and exits 2, 3 or 5.  A write to stdout that fails (a
closed pipe, as under ``| head``, or a full disk) prints one ``error: ...``
line and exits 6, and what stdout still buffers is dropped, so the
interpreter's flush at exit reports nothing.  ``--eps`` refuses a decimal
exponent over 4300 in magnitude, and ``--n-range`` a side size over
``MAX_SIDE`` (5 * 10**6).  ``bound`` formats its whole report before it
prints any of it, and ``extract --verify`` finishes before ``extract``
writes anything.

``oracle --limits N`` and ``experiment --oracle-max N`` set the side limit of
the oracle that runs to N; without them each oracle's default applies.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction
from typing import Callable, Iterator

from .bigraph import (
    GENERATOR_MODELS,
    MAX_VERTICES,
    SplitMix64,
    VertexRef,
    check_model,
    generate,
    parse_edge_list,
    require_nonnegative_d,
    serialize,
)
from .bounds import bound_report, decimal_string
from .errors import BiholesError, InstanceTooLarge, TraceMismatch, UnbalancedGraph
from .extract import DegenerateWitness, check_trace, find_bihole, find_degenerate, survivors
from .oracle import (
    check_elimination_order,
    is_bihole,
    max_bihole_exact,
    max_degenerate_exact,
    require_positive_limit,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNBALANCED = 3
EXIT_VERIFY = 4
EXIT_TOO_LARGE = 5
EXIT_STDOUT = 6

# The largest side of a balanced graph that an edge-list header admits.
MAX_SIDE = MAX_VERTICES // 2

CSV_HEADER = [
    "model",
    "n",
    "p",
    "seed",
    "d",
    "floor_bound",
    "ceil_strengthened",
    "avg_deg_bound",
    "extracted",
    "exact",
    "verified",
]


class _StdoutFailed(Exception):
    """A write to stdout, or its flush, failed."""


class _Stdout:
    """Where the commands write their output: ``sys.stdout``, looked up at
    each call so that a caller's redirect holds, with a failed write or
    flush raised as :class:`_StdoutFailed`, which :func:`main` tells apart
    from an error reading the input."""

    def write(self, text: str) -> None:
        try:
            sys.stdout.write(text)
        except (OSError, ValueError) as exc:
            raise _StdoutFailed(exc) from exc

    def flush(self) -> None:
        try:
            sys.stdout.flush()
        except (OSError, ValueError) as exc:
            raise _StdoutFailed(exc) from exc


_STDOUT = _Stdout()


def _drop_stdout() -> None:
    """Point the stdout file descriptor at the null device, where the flush
    at exit then puts what stdout still buffers; a stdout with no
    descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _read_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    return parse_edge_list(text)


def _find(g, d: int):
    """(witness, trace): the bi-hole extractor at d = 0, else the degenerate one."""
    return find_bihole(g) if d == 0 else find_degenerate(g, d)


def _exact(g, d: int, limit: int | None) -> int:
    """The oracle optimum: the bi-hole search at d = 0, else the degenerate one."""
    return max_bihole_exact(g, limit) if d == 0 else max_degenerate_exact(g, d, limit)


def _failed_checks(g, witness, trace, d: int, exact: int | None = None) -> list[str]:
    """Names of the checks an extraction fails; empty when it passes them all.

    ``witness``: the witness is a bi-hole (d = 0) or its elimination order
    replays (d >= 1).  ``trace``: :func:`check_trace` accepts the trace (a
    :class:`TraceMismatch` counts as a failure), and the witness's sets are
    exactly the vertices that no pair step of the trace removed; the replay
    ends on their count, so a passing witness reaches ``ceil_strengthened``.
    ``floor_bound``: the size reaches the trace's floor bound, which
    ``check_trace`` has tied to g.  ``exact``: the size is at most the exact
    optimum, when one is given.
    """
    if d == 0:
        valid = is_bihole(g, witness.left_set, witness.right_set)
    else:
        valid = check_elimination_order(
            g, witness.left_set, witness.right_set, d, witness.elimination_order
        )
    try:
        replayed = check_trace(g, trace, d)
    except TraceMismatch:
        replayed = False
    witness_sets = (tuple(witness.left_set), tuple(witness.right_set))
    checks = {
        "witness": valid,
        "trace": replayed and witness_sets == survivors(g, trace.steps),
        "floor_bound": witness.size >= trace.initial_report.floor_bound,
        "exact": exact is None or witness.size <= exact,
    }
    return [name for name, ok in checks.items() if not ok]


# Entries per piece that _write_json hands to ``write``: about 64 KiB of
# steps or bound values.
_PIECE = 640


def _write_list(write: Callable[[str], object], n: int, piece: Callable[[int, int], str]) -> None:
    """Write a JSON list of n entries, ``_PIECE`` at a time: ``piece(i, j)``
    is the text of entries i to j - 1, joined by ", "."""
    write("[")
    for i in range(0, n, _PIECE):
        if i:
            write(", ")
        write(piece(i, i + _PIECE))
    write("]")


def _write_json(write: Callable[[str], object], witness, trace=None) -> None:
    """Write ``extract``'s output line through ``write``, in pieces, so that
    no text of the whole output is built: the witness as JSON (left, right,
    size, and a degenerate witness's elimination_order), with its trace
    under "trace" when one is given (initial_report, steps, bound_values)."""
    left, right = witness.left_set, witness.right_set
    write('{"left": ')
    _write_list(write, len(left), lambda i, j: ", ".join(map(str, left[i:j])))
    write(', "right": ')
    _write_list(write, len(right), lambda i, j: ", ".join(map(str, right[i:j])))
    write(', "size": %d' % witness.size)
    if isinstance(witness, DegenerateWitness):
        order = witness.elimination_order
        write(', "elimination_order": ')
        _write_list(write, len(order), lambda i, j: ", ".join(map(VertexRef.json_text, order[i:j])))
    if trace is not None:
        steps, values = trace.steps, trace.bound_values
        write(', "trace": {"initial_report": %s, "steps": ' % trace.initial_report.json_text())
        _write_list(write, len(steps), steps.piece)
        write(', "bound_values": ')
        _write_list(write, len(values), values.piece)
        write("}")
    write("}\n")


def _eps(text: str) -> Fraction:
    """``--eps`` as a Fraction, refusing a decimal exponent over 4300 in magnitude
    (CPython's digit limit for ``int()`` of a string) before Fraction spends
    minutes building that power of ten."""
    try:
        too_big = abs(int(text.lower().partition("e")[2])) > 4300
    except ValueError:  # no exponent, or not an integer one: Fraction decides
        too_big = False
    if too_big:
        raise ValueError(f"eps exponent must be at most 4300 in magnitude, got {text!r}")
    return Fraction(text)


# -- subcommands --------------------------------------------------------------


def _cmd_bound(args) -> int:
    g = _read_graph(args.input)
    report = bound_report(g, args.d, _eps(args.eps))
    if args.json:
        print(report.json_text(), file=_STDOUT)
        return EXIT_OK
    lines = [
        f"n: {report.n}",
        f"d: {report.d}",
        f"floor_bound: {report.floor_bound}",
        f"strengthened: {report.strengthened} "
        f"(~{decimal_string(report.strengthened)}), ceil {report.ceil_strengthened}",
        f"average_degree_bound: {report.average_degree_bound} "
        f"(~{decimal_string(report.average_degree_bound)})",
    ]
    if report.log_reference is None:
        lines.append("log_reference: n/a (average degree <= 1)")
    else:
        hyp = "holds" if report.log_size_hypothesis_met else "fails"
        lines.append(
            f"log_reference: ~{decimal_string(report.log_reference)} "
            f"(eps = {report.log_reference_eps}, size hypothesis {hyp})"
        )
    print("\n".join(lines), file=_STDOUT)
    return EXIT_OK


def _cmd_extract(args) -> int:
    g = _read_graph(args.input)
    witness, trace = _find(g, args.d)
    if args.verify:
        failed = _failed_checks(g, witness, trace, args.d)
        if failed:
            print(f"verification failed: failed checks: {', '.join(failed)}", file=sys.stderr)
            return EXIT_VERIFY
    _write_json(_STDOUT.write, witness, trace if args.trace else None)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _read_graph(args.input)
    print(_exact(g, args.d, args.limits), file=_STDOUT)
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = generate(args.model, args.n, seed=args.seed, p=args.p)
    text = serialize(g)
    if args.output == "-":
        _STDOUT.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


# -- experiment ---------------------------------------------------------------


def _parse_n_range(text: str) -> range | list[int]:
    """Accepts '4-8' (inclusive), returned as a range, or a comma list
    '4,6,8'.  Refuses a part that is not an integer and any n below 1 or
    over ``MAX_SIDE``; no list of the sizes in a range is built."""
    text = text.strip()
    try:
        if "-" in text and "," not in text:
            lo_text, hi_text = text.split("-", 1)
            values = range(int(lo_text), int(hi_text) + 1)
            ends = [values[0], values[-1]] if values else []
        else:
            values = ends = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        ends = []
    if not ends or min(ends) < 1:
        raise ValueError(f"bad n range {text!r}")
    if max(ends) > MAX_SIDE:
        raise ValueError(f"n range {text!r} goes past the largest side size, {MAX_SIDE}")
    return values


def _experiment_cells(args) -> Iterator[tuple[str, int, float | None, int, int]]:
    """Validate the sweep, then return an iterator over its rows as
    (model, n, p, seed, d).

    Rows come in (model, n, p, d, trial) order.  Graph seeds are drawn from
    one SplitMix64 stream keyed by --seed, one per (model, n, p, trial) in
    that nested order, so the same arguments always name the same graphs
    and every d reuses the same graph.  The seed of trial t of the c-th
    (model, n, p) cell is draw c * trials + t of that stream, computed on its
    own by the counter property of SplitMix64, so no seed or row is stored.
    Every argument is checked before this returns, so a rejected sweep fails
    before any output is written.
    """
    require_positive_limit(args.oracle_max)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    ns = _parse_n_range(args.n_range)
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    ps = [float(x) for x in args.p_grid.split(",") if x.strip()] if args.p_grid else []
    ds = [int(x) for x in args.d_set.split(",") if x.strip()] if args.d_set else [0]
    for d in ds:
        require_nonnegative_d(d)
    p_values = {model: ps if model == "gnp" else [None] for model in models}
    if "gnp" in models and not ps:
        raise ValueError("model gnp needs a --p-grid")
    # check_model's tests of n are monotone in n, so checking a range at its
    # ends raises the error that a check of every cell would raise first
    for model in models:
        for n in (ns[0], ns[-1]) if isinstance(ns, range) else ns:
            for p in p_values[model]:
                check_model(model, n, p)
    cells = ((model, n, p) for model in models for n in ns for p in p_values[model])
    return (
        (model, n, p, SplitMix64.draw(args.seed, c * args.trials + trial), d)
        for c, (model, n, p) in enumerate(cells)
        for d in ds
        for trial in range(args.trials)
    )


def _one_row(model: str, n: int, p: float | None, seed: int, d: int, limit: int | None):
    g = generate(model, n, seed=seed, p=p)
    witness, trace = _find(g, d)
    try:
        exact = _exact(g, d, limit)
    except InstanceTooLarge:
        exact = None
    verified = not _failed_checks(g, witness, trace, d, exact)
    report = trace.initial_report
    return {
        "model": model,
        "n": n,
        "p": "" if p is None else str(p),
        "seed": seed,
        "d": d,
        "floor_bound": report.floor_bound,
        "ceil_strengthened": report.ceil_strengthened,
        "avg_deg_bound": decimal_string(report.average_degree_bound),
        "extracted": witness.size,
        "exact": "" if exact is None else exact,
        "verified": "true" if verified else "false",
    }


def _cmd_experiment(args) -> int:
    cells = _experiment_cells(args)
    out = _STDOUT if args.output == "-" else open(
        args.output, "w", encoding="utf-8", newline=""
    )
    summary_stream = sys.stderr if args.output == "-" else _STDOUT
    rows = gap_sum = violations = 0
    gap_min = None
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        out.flush()
        for cell in cells:
            row = _one_row(*cell, args.oracle_max)
            writer.writerow(row)
            out.flush()
            gap = row["extracted"] - row["floor_bound"]
            rows += 1
            gap_sum += gap
            gap_min = gap if gap_min is None else min(gap_min, gap)
            if row["verified"] != "true":
                violations += 1
    finally:
        if out is not _STDOUT:
            out.close()
    if rows:
        mean_gap = decimal_string(Fraction(gap_sum, rows), 6)
        print(
            f"rows: {rows}  violations: {violations}  "
            f"gap min: {gap_min}  gap mean: {mean_gap}",
            file=summary_stream,
        )
    else:
        print("rows: 0  violations: 0", file=summary_stream)
    return EXIT_VERIFY if violations else EXIT_OK


# -- parser / entry point -----------------------------------------------------


_GRAPH_ARGS = (
    (("input",), {"help": "edge-list file, or - for stdin"}),
    (("--d",), {"type": int, "default": 0, "help": "degeneracy parameter (default 0)"}),
)

_SIDE_LIMIT = {"type": int,
               "help": "side limit of the exhaustive search that runs (default: its own)"}

# command: (help, handler, its arguments as (flags, add_argument keywords)), in
# the order the help lists them
_COMMANDS = {
    "bound": ("compute all bound values for a graph", _cmd_bound, _GRAPH_ARGS + (
        (("--eps",), {"default": "1/2", "help": "eps for the log reference bound"}),
        (("--json",), {"action": "store_true", "help": "emit the report as JSON"}),
    )),
    "extract": ("extract a witness (JSON on stdout)", _cmd_extract, _GRAPH_ARGS + (
        (("--trace",), {"action": "store_true", "help": "include the peel trace"}),
        (("--verify",), {"action": "store_true", "help": "re-verify witness and trace"}),
    )),
    "oracle": ("exact optimum by brute force", _cmd_oracle, _GRAPH_ARGS + (
        (("--limits",), _SIDE_LIMIT),
    )),
    "gen": ("generate a graph and write its edge list", _cmd_gen, (
        (("model",), {"choices": GENERATOR_MODELS}),
        (("n",), {"type": int, "help": "side size"}),
        (("output",), {"help": "output file, or - for stdout"}),
        (("--p",), {"type": float, "help": "edge probability (gnp only)"}),
        (("--seed",), {"type": int, "default": 0, "help": "64-bit seed (gnp only)"}),
    )),
    "experiment": ("bound/extract/oracle sweep to CSV", _cmd_experiment, (
        (("--models",), {"default": "gnp", "help": "comma list of models (default gnp)"}),
        (("--n-range",), {"default": "4-8", "help": "side sizes: '4-8' or '4,6,8'"}),
        (("--p-grid",), {"default": "0.1,0.3,0.5,0.7,0.9",
                         "help": "comma list of gnp probabilities"}),
        (("--d-set",), {"default": "0", "help": "comma list of d values (default 0)"}),
        (("--trials",), {"type": int, "default": 3, "help": "graphs per (model, n, p) cell"}),
        (("--seed",), {"type": int, "default": 0, "help": "master seed for graph seeds"}),
        (("--oracle-max",), _SIDE_LIMIT),
        (("-o", "--output"), {"required": True, "help": "CSV output file, or - for stdout"}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``bihole`` parser.  When ``command`` names a subcommand, only that
    subparser is registered, so a call builds the one parser it runs;
    otherwise (None, ``-h``, an unknown name, an option) the whole tree is.
    The text printed for an argv that starts with ``command`` does not
    depend on which tree parses it: the one-command tree's usage line lists
    all five commands, and an error about the command itself, which names
    it ``command``, can only come from the whole tree."""
    parser = argparse.ArgumentParser(
        prog="bihole",
        description="Degree-sequence bounds and constructive extraction of "
        "bi-holes and balanced degenerate subgraphs in bipartite graphs.",
    )
    whole = command not in _COMMANDS
    metavar = None if whole else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if whole else [command]:
        help_text, func, arguments = _COMMANDS[name]
        p_cmd = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p_cmd.add_argument(*flags, **keywords)
        p_cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.func(args)
        _STDOUT.flush()
        return code
    except _StdoutFailed as exc:
        _drop_stdout()
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_STDOUT
    except (BiholesError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnbalancedGraph):
            return EXIT_UNBALANCED
        return EXIT_TOO_LARGE if isinstance(exc, InstanceTooLarge) else EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
