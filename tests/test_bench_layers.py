"""The benchmark harness still charges time to each layer it traces.

``bench/run.py`` times layers by swapping out module-level names of
``biholes.cli`` and ``biholes.extract`` (``find_bihole``, ``check_trace``,
``is_bihole``, ``bound_report``, ...).  A refactor that stops calling one of
those names through its module would leave that layer's time at zero without
failing anything else, so this runs the harness traced on a tiny spec and
requires every layer these workloads exercise to be nonzero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run  # noqa: E402  (bench/run.py)
from test_harness import SEED, TINY  # noqa: E402  (bench/test_harness.py)

LAYERS = ("extract.peel_s", "extract.check_trace_s", "oracle.verify_s", "bounds.report_s")
STEPS = ("extract.steps_case1", "extract.steps_lowdeg")


@pytest.fixture
def traced_metrics(capsys, monkeypatch, tmp_path):
    """Run one workload with ``--trace 1`` and return its metric values.

    The harness re-imports biholes from ``src``; the modules the other tests
    hold are put back afterwards, and its files go to ``tmp_path``.
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "biholes"]:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
    monkeypatch.setattr(run, "WORK", tmp_path)

    def metrics(workload: str) -> dict[str, float]:
        argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", "1"]
        assert run.main(argv, spec=TINY) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {name: m["value"] for name, m in result["metrics"].items()}

    return metrics


@pytest.mark.parametrize("workload", sorted(TINY["workloads"]))
def test_every_traced_layer_is_charged(traced_metrics, workload):
    values = traced_metrics(workload)
    for name in LAYERS:
        assert values[name] > 0, name
    for name in STEPS:
        assert values[name] > 0, name


def test_sweep_charges_the_bihole_oracle(traced_metrics):
    values = traced_metrics("tiny_sweep")
    assert values["oracle.bihole_exact_calls"] > 0
    assert values["oracle.bihole_exact_s"] > 0
