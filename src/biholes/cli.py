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
4 verification failure, 5 instance over oracle limits.

The environment variable ``BIHOLE_ORACLE_MAX`` overrides both oracle side
limits; the ``--limits`` / ``--oracle-max`` flags override the variable.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from fractions import Fraction

from .bigraph import (
    GENERATOR_MODELS,
    SplitMix64,
    check_model,
    generate,
    parse_edge_list,
    serialize,
)
from .bounds import bound_report, decimal_string
from .errors import (
    BiholesError,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidProbability,
    InvalidSize,
    MalformedEdgeLine,
    MalformedHeader,
    NegativeD,
    TraceMismatch,
    UnbalancedGraph,
)
from .extract import check_trace, find_bihole, find_degenerate
from .oracle import (
    OracleLimits,
    check_elimination_order,
    is_bihole,
    max_bihole_exact,
    max_degenerate_exact,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNBALANCED = 3
EXIT_VERIFY = 4
EXIT_TOO_LARGE = 5

ORACLE_MAX_ENV = "BIHOLE_ORACLE_MAX"

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


class _VerificationFailed(BiholesError):
    pass


def _read_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    return parse_edge_list(text)


def _oracle_limits(flag_value: int | None) -> OracleLimits:
    if flag_value is not None:
        return OracleLimits(flag_value, flag_value)
    env = os.environ.get(ORACLE_MAX_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ORACLE_MAX_ENV} must be an integer, got {env!r}") from None
        return OracleLimits(value, value)
    return OracleLimits()


# -- subcommands --------------------------------------------------------------


def _cmd_bound(args) -> int:
    g = _read_graph(args.input)
    report = bound_report(g, args.d, Fraction(args.eps))
    if args.json:
        import json

        print(json.dumps(report.to_json()))
        return EXIT_OK
    print(f"n: {report.n}")
    print(f"d: {report.d}")
    print(f"floor_bound: {report.floor_bound}")
    print(
        f"strengthened: {report.strengthened} "
        f"(~{decimal_string(report.strengthened)}), ceil {report.ceil_strengthened}"
    )
    print(
        f"average_degree_bound: {report.average_degree_bound} "
        f"(~{decimal_string(report.average_degree_bound)})"
    )
    if report.log_reference is None:
        print("log_reference: n/a (average degree <= 1)")
    else:
        hyp = "holds" if report.log_size_hypothesis_met else "fails"
        print(
            f"log_reference: ~{decimal_string(report.log_reference)} "
            f"(eps = {report.log_reference_eps}, size hypothesis {hyp})"
        )
    return EXIT_OK


def _cmd_extract(args) -> int:
    import json

    g = _read_graph(args.input)
    if args.d == 0:
        witness, trace = find_bihole(g)
    else:
        witness, trace = find_degenerate(g, args.d)
    if args.verify:
        if args.d == 0:
            valid = is_bihole(g, witness.left_set, witness.right_set)
        else:
            valid = check_elimination_order(
                g, witness.left_set, witness.right_set, args.d, witness.elimination_order
            )
        try:
            monotone = check_trace(g, trace, args.d)
        except TraceMismatch:
            monotone = False
        if not (valid and monotone):
            raise _VerificationFailed(
                f"witness valid: {valid}, trace monotone: {monotone}"
            )
    payload = witness.to_json()
    if args.trace:
        payload["trace"] = trace.to_json()
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _read_graph(args.input)
    limits = _oracle_limits(args.limits)
    if args.d is None or args.d == 0:
        value = max_bihole_exact(g, limits)
    else:
        value = max_degenerate_exact(g, args.d, limits)
    print(value)
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = generate(args.model, args.n, seed=args.seed, p=args.p)
    text = serialize(g)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


# -- experiment ---------------------------------------------------------------


def _parse_n_range(text: str) -> list[int]:
    """Accepts '4-8' (inclusive) or a comma list '4,6,8'."""
    text = text.strip()
    if "-" in text and "," not in text:
        lo_text, hi_text = text.split("-", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad n range {text!r}")
        return list(range(lo, hi + 1))
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"bad n range {text!r}")
    return values


def _experiment_cells(args) -> list[tuple[str, int, float | None, int, int]]:
    """Validate the sweep and list its rows as (model, n, p, seed, d).

    Rows come in (model, n, p, d, trial) order.  Graph seeds are drawn from
    one SplitMix64 stream keyed by --seed, one per (model, n, p, trial) in
    that nested order, so the same arguments always name the same graphs
    and every d reuses the same graph.  Every argument is checked here, so a
    rejected sweep fails before any output is written.
    """
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    for m in models:
        if m not in GENERATOR_MODELS:
            raise ValueError(f"unknown model {m!r}; expected one of {GENERATOR_MODELS}")
    ns = _parse_n_range(args.n_range)
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    ps = [float(x) for x in args.p_grid.split(",") if x.strip()] if args.p_grid else []
    ds = [int(x) for x in args.d_set.split(",") if x.strip()] if args.d_set else [0]
    if any(d < 0 for d in ds):
        raise NegativeD(f"d values must be >= 0, got {ds}")
    p_values = {model: ps if model == "gnp" else [None] for model in models}
    if "gnp" in models and not ps:
        raise ValueError("model gnp needs a --p-grid")
    master = SplitMix64(args.seed)
    seeds: dict[tuple, int] = {}
    for model in models:
        for n in ns:
            for p in p_values[model]:
                check_model(model, n, p)
                for trial in range(args.trials):
                    seeds[(model, n, p, trial)] = master.next_u64()
    return [
        (model, n, p, seeds[(model, n, p, trial)], d)
        for model in models
        for n in ns
        for p in p_values[model]
        for d in ds
        for trial in range(args.trials)
    ]


def _one_row(model: str, n: int, p: float | None, seed: int, d: int, limits: OracleLimits):
    g = generate(model, n, seed=seed, p=p)
    report = bound_report(g, d)
    if d == 0:
        witness, trace = find_bihole(g)
        valid = is_bihole(g, witness.left_set, witness.right_set)
        exact = max_bihole_exact(g, limits) if n <= limits.max_side_bihole else None
    else:
        witness, trace = find_degenerate(g, d)
        valid = check_elimination_order(
            g, witness.left_set, witness.right_set, d, witness.elimination_order
        )
        exact = (
            max_degenerate_exact(g, d, limits) if n <= limits.max_side_degenerate else None
        )
    try:
        monotone = check_trace(g, trace, d)
    except TraceMismatch:
        monotone = False
    verified = (
        valid
        and monotone
        and witness.size >= report.floor_bound
        and (exact is None or witness.size <= exact)
    )
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
    limits = _oracle_limits(args.oracle_max)
    cells = _experiment_cells(args)
    out = sys.stdout if args.output == "-" else open(
        args.output, "w", encoding="utf-8", newline=""
    )
    summary_stream = sys.stderr if args.output == "-" else sys.stdout
    gaps: list[int] = []
    violations = 0
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        out.flush()
        for cell in cells:
            row = _one_row(*cell, limits)
            writer.writerow(row)
            out.flush()
            gaps.append(row["extracted"] - row["floor_bound"])
            if row["verified"] != "true":
                violations += 1
    finally:
        if out is not sys.stdout:
            out.close()
    if gaps:
        mean_gap = decimal_string(Fraction(sum(gaps), len(gaps)), 6)
        print(
            f"rows: {len(gaps)}  violations: {violations}  "
            f"gap min: {min(gaps)}  gap mean: {mean_gap}",
            file=summary_stream,
        )
    else:
        print("rows: 0  violations: 0", file=summary_stream)
    return EXIT_VERIFY if violations else EXIT_OK


# -- parser / entry point -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihole",
        description="Degree-sequence bounds and constructive extraction of "
        "bi-holes and balanced degenerate subgraphs in bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute all bound values for a graph")
    p_bound.add_argument("input", help="edge-list file, or - for stdin")
    p_bound.add_argument("--d", type=int, default=0, help="degeneracy parameter (default 0)")
    p_bound.add_argument("--eps", default="1/2", help="eps for the log reference bound")
    p_bound.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_bound.set_defaults(func=_cmd_bound)

    p_extract = sub.add_parser("extract", help="extract a witness (JSON on stdout)")
    p_extract.add_argument("input", help="edge-list file, or - for stdin")
    p_extract.add_argument("--d", type=int, default=0, help="degeneracy parameter (default 0)")
    p_extract.add_argument("--trace", action="store_true", help="include the peel trace")
    p_extract.add_argument("--verify", action="store_true", help="re-verify witness and trace")
    p_extract.set_defaults(func=_cmd_extract)

    p_oracle = sub.add_parser("oracle", help="exact optimum by brute force")
    p_oracle.add_argument("input", help="edge-list file, or - for stdin")
    p_oracle.add_argument("--d", type=int, default=None, help="degeneracy parameter (default: bi-hole)")
    p_oracle.add_argument("--limits", type=int, default=None, help="override both oracle side limits")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a graph and write its edge list")
    p_gen.add_argument("model", choices=GENERATOR_MODELS)
    p_gen.add_argument("n", type=int, help="side size")
    p_gen.add_argument("output", help="output file, or - for stdout")
    p_gen.add_argument("--p", type=float, default=None, help="edge probability (gnp only)")
    p_gen.add_argument("--seed", type=int, default=0, help="64-bit seed (gnp only)")
    p_gen.set_defaults(func=_cmd_gen)

    p_exp = sub.add_parser("experiment", help="bound/extract/oracle sweep to CSV")
    p_exp.add_argument("--models", default="gnp", help="comma list of models (default gnp)")
    p_exp.add_argument("--n-range", default="4-8", help="side sizes: '4-8' or '4,6,8'")
    p_exp.add_argument("--p-grid", default="0.1,0.3,0.5,0.7,0.9", help="comma list of gnp probabilities")
    p_exp.add_argument("--d-set", default="0", help="comma list of d values (default 0)")
    p_exp.add_argument("--trials", type=int, default=3, help="graphs per (model, n, p) cell")
    p_exp.add_argument("--seed", type=int, default=0, help="master seed for graph seeds")
    p_exp.add_argument("--oracle-max", type=int, default=None, help="override both oracle side limits")
    p_exp.add_argument("-o", "--output", required=True, help="CSV output file, or - for stdout")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedHeader, MalformedEdgeLine, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnbalancedGraph as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBALANCED
    except _VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (InvalidProbability, InvalidSize, NegativeD, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
