"""Reference payloads: the dict form of ``bihole extract``'s output, kept as a
test oracle.

The library writes each step, bound value, vertex and witness straight from
a format string.  These are the dict builders that output was once made of;
``json.dumps`` of :func:`payload` is the byte reference the writers are
compared against.
"""

from __future__ import annotations

from biholes.bigraph import VertexRef
from biholes.bounds import rational_to_json
from biholes.extract import BiholeWitness, DegenerateWitness, PeelStep, PeelTrace


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
        "initial_report": trace.initial_report.to_json(),
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
