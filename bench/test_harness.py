"""Self-test of the benchmark harness on tiny instances.

Run from the repository root::

    python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (bench/run.py)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SEED = 3
TINY = {
    "default_seed": SEED,
    "workloads": {
        "tiny_extract": {
            "kind": "extract",
            "graphs": [{"model": "gnp", "n": 12, "p": 0.3}],
            "d": [0, 1],
            "digests": {},
        },
        "tiny_sweep": {
            "kind": "experiment",
            "args": ["--models", "gnp", "--p-grid", "0.3,0.7", "--d-set", "0,1"],
            "sweeps": [{"n_range": "4", "trials": 1}, {"n_range": "6", "trials": 2}],
            "digests": {},
        },
    },
}


def invoke(capsys, spec: dict, workload: str, trace: int = 0):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace)]
    code = run.main(argv, spec=spec)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(TINY["workloads"]))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace, section):
    code, lines = invoke(capsys, TINY, workload, trace)
    result = result_of(lines)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert f"{name} = " in "\n".join(lines)
    # The wrappers are gone once the run ends.
    cli = sys.modules["biholes.cli"]
    assert cli.find_bihole is sys.modules["biholes.extract"].find_bihole
    assert sys.modules["biholes.extract"].bound_report is sys.modules["biholes.bounds"].bound_report


def test_tampered_digest_fails_the_run(capsys):
    _, lines = invoke(capsys, TINY, "tiny_sweep")
    digests = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("job ")}
    assert len(digests) == 2

    spec = copy.deepcopy(TINY)
    spec["workloads"]["tiny_sweep"]["digests"] = {str(SEED): digests}
    code, lines = invoke(capsys, spec, "tiny_sweep")
    assert code == 0 and result_of(lines)["failed"] == 0

    spec["workloads"]["tiny_sweep"]["digests"][str(SEED)]["sweep-n4-t1"] = "0" * 64
    code, lines = invoke(capsys, spec, "tiny_sweep")
    result = result_of(lines)
    assert code != 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    error_rate = [line for line in lines if line.startswith("error_rate = ")]
    assert float(error_rate[0].split()[2]) > 0


def test_checkout_without_sources_prints_no_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = invoke(capsys, TINY, "tiny_extract")
    assert code not in (0, None)
    assert not any(line.startswith("{") for line in lines)


def test_spec_matches_benchmark_json():
    spec = run.load_spec()
    assert sorted(spec["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for workload in spec["workloads"].values():
        assert len(workload["digests"][str(spec["default_seed"])]) >= 1
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(run.PER_LAYER_UNITS) == {m["name"] for m in BENCHMARK["per_layer"]}
