"""The workloads of the benchmark still produce their recorded bytes.

``bench/workloads.json`` holds the SHA-256 of every job's output at the
default seed: witness plus trace JSON for the peel workloads, the CSV for
``oracle_sweep``.  This runs one untraced pass of each workload through
``bench/run.py``'s ``Bench`` and requires every job to exit 0, pass the
harness's own checks and match its recorded digest, so a change to the peel,
the replay, the oracles or the output that moves a single byte fails here
rather than only in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import run  # noqa: E402  (bench/run.py)


@pytest.fixture
def bench_env(monkeypatch, tmp_path):
    """The harness re-imports biholes from ``src``; the modules the other
    tests hold are put back afterwards, and its files go to ``tmp_path``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "biholes"]:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.syspath_prepend(str(run.SRC))
    return tmp_path


@pytest.mark.parametrize("name", ["sparse_peel", "dense_peel", "oracle_sweep"])
def test_peel_workload_matches_recorded_digests(bench_env, name):
    spec = run.load_spec()
    seed = spec["default_seed"]
    workload = spec["workloads"][name]
    expected = workload["digests"][str(seed)]
    bench = run.Bench(workload, seed, bench_env / name, expected)
    bench.set_up()
    bench.run_pass(tracing=False)
    assert bench.digests.keys() == expected.keys()
    assert bench.failed == 0
