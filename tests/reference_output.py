"""Reference payloads: the dict form of ``bihole extract``'s and ``bihole
bound --json``'s output, kept as a test oracle.

The library writes each step, bound value, report, vertex and witness
straight from a format string.  These are the dict builders that output was
once made of; ``json.dumps`` of :func:`payload` and of :func:`report_to_json`
are the byte references the writers are compared against.
"""

from __future__ import annotations

from fractions import Fraction

from biholes.bigraph import VertexRef
from biholes.bounds import BoundReport, decimal_string
from biholes.extract import BiholeWitness, DegenerateWitness, PeelStep, PeelTrace


def rational_to_json(x: Fraction) -> dict:
    return {
        "num": str(x.numerator),
        "den": str(x.denominator),
        "decimal": decimal_string(x),
    }


def report_to_json(report: BoundReport) -> dict:
    log_part = None
    if report.log_reference is not None:
        log_part = {
            "value": rational_to_json(report.log_reference),
            "eps": rational_to_json(report.log_reference_eps),
            "size_hypothesis_met": report.log_size_hypothesis_met,
        }
    return {
        "n": report.n,
        "d": report.d,
        "floor_bound": report.floor_bound,
        "strengthened": rational_to_json(report.strengthened),
        "ceil_strengthened": report.ceil_strengthened,
        "average_degree_bound": rational_to_json(report.average_degree_bound),
        "log_reference": log_part,
    }


def vertex_to_json(v: VertexRef) -> list:
    return [v.side.value, v.index]


def step_to_json(step: PeelStep) -> dict:
    return {
        "kind": step.kind,
        "a": step.a,
        "b": step.b,
        "v": vertex_to_json(step.v) if step.v is not None else None,
        "degrees_before": list(step.degrees_before),
    }


def trace_to_json(trace: PeelTrace) -> dict:
    return {
        "initial_report": report_to_json(trace.initial_report),
        "steps": [step_to_json(s) for s in trace.steps],
        "bound_values": [rational_to_json(v) for v in trace.bound_values],
    }


def witness_to_json(witness: BiholeWitness | DegenerateWitness) -> dict:
    out = {
        "left": list(witness.left_set),
        "right": list(witness.right_set),
        "size": witness.size,
    }
    if isinstance(witness, DegenerateWitness):
        out["elimination_order"] = [vertex_to_json(v) for v in witness.elimination_order]
    return out


def payload(witness, trace: PeelTrace | None = None) -> dict:
    """What ``extract`` prints, as a dict: the witness, and with ``--trace``
    its trace under ``"trace"``."""
    out = witness_to_json(witness)
    if trace is not None:
        out["trace"] = trace_to_json(trace)
    return out
