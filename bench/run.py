"""Benchmark harness for the ``bihole`` command line.

Run from the repository root::

    python3 bench/run.py --workload sparse_peel --seed 1 --seconds 32 --trace 0

A workload (defined in ``bench/workloads.json``) is a fixed list of jobs.
Each job is one call of the real CLI entry point ``biholes.cli.main([...])``,
made in this process on edge-list files generated during set-up.  Jobs run
one at a time from this single process with no extra threads: a closed loop
with one client.  The set-up and the job list are repeated until
``--seconds`` is used up, and every time reported is a median over those
repetitions.

Times are reported at the host's reference speed.  On a shared 2-vCPU host
the processor's speed drifts with the load of other tenants: the same job
list took 2.5 s in one minute and 4.6 s a few minutes later, CPU time moving
with wall time, and five 36-second runs' medians differed by up to 44%.  So a
fixed
piece of pure-Python work that runs no biholes code (``probe``) is timed
just before and just after every job and every set-up, and the measured
time is scaled by ``REFERENCE_PROBE_S`` divided by the mean of those two
probe times.  A run on an unloaded host reports about its wall time; the
unscaled wall time and the host slowdown are printed as well.

``--trace 0`` reports the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` alternates untraced and traced passes.  A traced
pass replaces the module-level names the CLI and the extractor call (see
``LAYER_OF_SPAN``) with wrappers that record spans in memory, and restores
the originals afterwards; no library source is changed.  Per-layer self
times and work counts come from those spans and from the objects the wrapped
functions return.  The spans are written to ``bench/_work/`` when the run
ends.

Every job's output is hashed: stdout (witness plus trace JSON) for
``extract``, the CSV for ``experiment``.  Every pass must reproduce the
first pass's digests, and for a seed with digests recorded in
``workloads.json`` they must equal the recorded ones.  A job fails when it
exits nonzero (which covers ``--verify`` and sweep violations), when its
output does not pass the harness's own checks, or when a digest differs.
Any failure makes the command exit 1.  Set-up problems, such as a checkout
without ``src/biholes``, exit 2 without printing a result.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SPEC_PATH = BENCH_DIR / "workloads.json"

MIN_PASSES = 4

# Median time of ``probe`` on an unloaded x86-64 2-vCPU VM with CPython
# 3.11.7.  A constant, so that a run made while the whole host is slow is
# scaled back like a single slow job.
REFERENCE_PROBE_S = 0.0069

# Span name ("<module>.<attribute>" under biholes) -> the per-layer metric
# its self time is charged to.  "cli.main" is the whole job.
LAYER_OF_SPAN = {
    "cli.main": "cli.self_s",
    "cli.parse_edge_list": "bigraph.parse_s",
    "cli.generate": "bigraph.generate_s",
    "cli.bound_report": "bounds.report_s",
    "extract.bound_report": "bounds.report_s",
    "cli.find_bihole": "extract.peel_s",
    "cli.find_degenerate": "extract.peel_s",
    "cli.check_trace": "extract.check_trace_s",
    "cli.is_bihole": "oracle.verify_s",
    "cli.check_elimination_order": "oracle.verify_s",
    "extract.degeneracy_certificate": "oracle.certificate_s",
    "cli.max_bihole_exact": "oracle.bihole_exact_s",
    "cli.max_degenerate_exact": "oracle.degenerate_exact_s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
}

COUNT_NAMES = (
    "bigraph.edges_parsed",
    "extract.steps_case1",
    "extract.steps_case2",
    "extract.steps_lowdeg",
    "extract.witness_slack",
    "oracle.bihole_exact_calls",
    "oracle.degenerate_exact_calls",
    "cli.output_bytes",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in dict.fromkeys(LAYER_OF_SPAN.values())},
    **{name: "count" for name in COUNT_NAMES},
    "extract.peel_us_per_step": "us",
    "bench.trace_overhead_frac": "ratio",
    "bench.host_slowdown": "ratio",
}

STEP_COUNTER = {
    "pair_case1": "extract.steps_case1",
    "pair_case2": "extract.steps_case2",
    "low_degree_edge_deletion": "extract.steps_lowdeg",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # "extract" or "experiment"
    argv: tuple[str, ...]
    instance: str  # how to reproduce the input with ``bihole gen`` / the sweep
    csv_path: Path | None = None


@dataclass
class Outcome:
    seconds: float  # at the reference speed
    slowdown: float  # host speed while the job ran, relative to the reference
    ok: bool
    digest: str
    output_bytes: int
    message: str = ""


# -- tracing ------------------------------------------------------------------


def _count_extraction(counts: Counter, result) -> None:
    witness, trace = result
    for step in trace.steps:
        counts[STEP_COUNTER[step.kind]] += 1
    counts["extract.witness_slack"] += witness.size - trace.initial_report.ceil_strengthened


COUNT_RESULT = {
    "cli.parse_edge_list": lambda c, g: c.update({"bigraph.edges_parsed": g.edge_count}),
    "cli.find_bihole": _count_extraction,
    "cli.find_degenerate": _count_extraction,
    "cli.max_bihole_exact": lambda c, _: c.update({"oracle.bihole_exact_calls": 1}),
    "cli.max_degenerate_exact": lambda c, _: c.update({"oracle.degenerate_exact_calls": 1}),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNT_RESULT.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.job]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        originals = []
        try:
            for name in LAYER_OF_SPAN:
                module_name, attr = name.split(".")
                module = sys.modules[f"biholes.{module_name}"]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def self_times(self, first_span: int, slowdown: dict[str, float]) -> dict[str, float]:
        """Per-layer self time of the spans recorded from ``first_span`` on:
        each span's duration minus the time its direct children cover,
        divided by the host slowdown measured around the span's job."""
        spans = self.spans[first_span:]
        children = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                children[parent] += end - start
        layers = dict.fromkeys(LAYER_OF_SPAN.values(), 0.0)
        for offset, (name, start, end, _, job) in enumerate(spans):
            own = (end - start) - children[first_span + offset]
            layers[LAYER_OF_SPAN[name]] += own / slowdown[job]
        return layers

    def write(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


# -- timing -------------------------------------------------------------------


def probe() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work: exact
    fractions and set churn, as in the peel, but no biholes code."""
    start = time.perf_counter()
    total = Fraction(0)
    live: set[int] = set()
    for i in range(1, 3000):
        total += Fraction(1, i % 50 + 1)
        live.add(i * 7 % 1013)
        live.discard(i * 3 % 1013)
    return time.perf_counter() - start


def timed(fn) -> tuple[float, float, object]:
    """(seconds at the reference speed, host slowdown, fn's result)."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    slowdown = (before + probe()) / 2 / REFERENCE_PROBE_S
    return seconds / slowdown, slowdown, result


# -- set-up -------------------------------------------------------------------


def _import_cli():
    """Import ``biholes.cli`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "biholes" or m.startswith("biholes.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("biholes.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import biholes from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"biholes was imported from {cli.__file__}, not from {SRC}")
    return cli


def _call_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def make_jobs(cli, workload: dict, seed: int, workdir: Path) -> list[Job]:
    """Build the job list, writing each extract input with ``bihole gen``.

    Graph seeds are drawn in spec order from one SplitMix64 stream keyed by
    the workload seed; every d reuses the same graph.
    """
    jobs = []
    if workload["kind"] == "extract":
        rng = cli.SplitMix64(seed)
        for graph in workload["graphs"]:
            model, n, p = graph["model"], graph["n"], graph["p"]
            graph_seed = rng.next_u64()
            path = workdir / f"{model}-n{n}.txt"
            gen = ["gen", model, str(n), str(path), "--p", repr(p), "--seed", str(graph_seed)]
            rc, _, err = _call_cli(cli, gen)
            if rc != 0:
                raise SetupError(f"bihole {' '.join(gen)} exited {rc}: {err.strip()}")
            for d in workload["d"]:
                jobs.append(
                    Job(
                        id=f"{model}-n{n}-d{d}",
                        kind="extract",
                        argv=("extract", str(path), "--d", str(d), "--trace", "--verify"),
                        instance=f"({model}, {n}, {p!r}, {graph_seed}, {d})",
                    )
                )
    elif workload["kind"] == "experiment":
        for sweep in workload["sweeps"]:
            n_range, trials = sweep["n_range"], str(sweep["trials"])
            csv_path = workdir / f"sweep-n{n_range}.csv"
            tail = ("--n-range", n_range, "--trials", trials, "--seed", str(seed), "-o", str(csv_path))
            argv = ("experiment", *workload["args"], *tail)
            jobs.append(
                Job(
                    id=f"sweep-n{n_range}-t{trials}",
                    kind="experiment",
                    argv=argv,
                    instance="bihole " + " ".join(argv[:-2]),
                    csv_path=csv_path,
                )
            )
    else:
        raise SetupError(f"unknown workload kind {workload['kind']!r}")
    return jobs


# -- running jobs -------------------------------------------------------------


def _check_output(job: Job, rc: int, stdout: str, stderr: str) -> tuple[bool, bytes, str]:
    """(ok, bytes to hash, message) for one finished job."""
    if rc != 0:
        return False, stdout.encode(), f"exit {rc}: {stderr.strip()}"
    if job.kind == "extract":
        payload = json.loads(stdout)
        size = payload["size"]
        bound = payload["trace"]["initial_report"]["ceil_strengthened"]
        if not (size == len(payload["left"]) == len(payload["right"]) >= bound):
            return False, stdout.encode(), f"witness of size {size} is unbalanced or below {bound}"
        return True, stdout.encode(), ""
    data = job.csv_path.read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    for row in rows:
        bad = row["verified"] != "true" or int(row["extracted"]) < int(row["floor_bound"])
        if bad or (row["exact"] and int(row["extracted"]) > int(row["exact"])):
            return False, data, f"bad sweep row {row}"
    if not rows or "violations: 0 " not in stdout:
        return False, data, f"sweep summary: {stdout.strip()!r}"
    return True, data, ""


def run_job(cli, job: Job, tracer: Tracer | None) -> Outcome:
    gc.collect()
    if tracer is not None:
        tracer.job = job.id
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        seconds, slowdown, rc = timed(lambda: cli.main(list(job.argv)))
    stdout = out.getvalue()
    ok, data, message = _check_output(job, rc, stdout, err.getvalue())
    output_bytes = len(stdout.encode()) + (len(data) if job.kind == "experiment" else 0)
    return Outcome(seconds, slowdown, ok, hashlib.sha256(data).hexdigest(), output_bytes, message)


def _wall(passes: list[dict[str, float]]) -> tuple[float, float]:
    """(sum, max) over jobs of each job's median time across passes."""
    medians = [statistics.median(p[job] for p in passes) for job in passes[0]]
    return sum(medians), max(medians)


class Bench:
    """One workload at one seed: set-up, passes, and what they measured."""

    def __init__(self, workload: dict, seed: int, workdir: Path, expected: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.tracer = Tracer()
        self.setup_times: list[float] = []
        self.slowdowns: list[float] = []
        self.untraced: list[dict[str, float]] = []
        self.unscaled: list[dict[str, float]] = []
        self.traced: list[dict[str, float]] = []
        self.layers: list[dict[str, float]] = []
        self.counts: list[Counter] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.start = 0.0

    def set_up(self) -> None:
        """Import biholes afresh, then generate and write every input."""
        shutil.rmtree(self.workdir, ignore_errors=True)

        def once():
            self.workdir.mkdir(parents=True)
            cli = _import_cli()
            return cli, make_jobs(cli, self.workload, self.seed, self.workdir)

        seconds, _, (self.cli, self.jobs) = timed(once)
        self.setup_times.append(seconds)

    def run_pass(self, tracing: bool) -> None:
        tracer = self.tracer
        first_span = len(tracer.spans)
        tracer.counts = Counter()
        times: dict[str, float] = {}
        slowdown: dict[str, float] = {}
        with tracer.installed() if tracing else contextlib.nullcontext():
            for job in self.jobs:
                outcome = run_job(self.cli, job, tracer if tracing else None)
                self.attempted += 1
                tracer.counts["cli.output_bytes"] += outcome.output_bytes
                self.digests.setdefault(job.id, outcome.digest)
                want = self.expected.get(job.id, self.digests[job.id])
                if not outcome.ok or outcome.digest != want:
                    self.failed += 1
                    reason = outcome.message or f"digest {outcome.digest} != {want}"
                    print(f"FAILED {job.id}: {reason}", file=sys.stderr)
                times[job.id] = outcome.seconds
                slowdown[job.id] = outcome.slowdown
        self.slowdowns.extend(slowdown.values())
        if tracing:
            self.traced.append(times)
            self.layers.append(tracer.self_times(first_span, slowdown))
            self.counts.append(tracer.counts)
        else:
            self.untraced.append(times)
            self.unscaled.append({job: times[job] * slowdown[job] for job in times})

    def measure(self, seconds: float, trace: bool) -> None:
        """Set up and run one pass, over and over, until ``seconds`` are used
        up (at least MIN_PASSES passes).  Repeating the set-up before every
        pass spreads its samples over the whole run, like the passes'.  With
        ``trace`` the passes alternate untraced and traced."""
        self.start = time.perf_counter()
        while True:
            self.set_up()
            self.run_pass(tracing=trace and len(self.untraced) > len(self.traced))
            done = len(self.untraced) + len(self.traced)
            elapsed = time.perf_counter() - self.start
            if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
                return

    def end_to_end(self) -> dict[str, float]:
        wall_s, job_max_s = _wall(self.untraced)
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": wall_s,
            "job_max_s": job_max_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        counts = self.counts[0]
        values = {name: statistics.median(l[name] for l in self.layers) for name in self.layers[0]}
        values.update((name, counts[name]) for name in COUNT_NAMES)
        steps = sum(counts[name] for name in STEP_COUNTER.values())
        values["extract.peel_us_per_step"] = values["extract.peel_s"] / steps * 1e6 if steps else 0.0
        untraced_wall_s, _ = _wall(self.untraced)
        traced_wall_s, _ = _wall(self.traced)
        values["bench.trace_overhead_frac"] = (traced_wall_s - untraced_wall_s) / untraced_wall_s
        values["bench.host_slowdown"] = statistics.median(self.slowdowns)
        return values


# -- entry point --------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None, spec: dict | None = None) -> int:
    spec = load_spec() if spec is None else spec
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = spec["workloads"][args.workload]
    expected = workload["digests"].get(str(args.seed), {})
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(workload, args.seed, workdir, expected)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        bench.measure(args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bench.failed == 0 and all(c == bench.counts[0] for c in bench.counts)
    if not correct and bench.failed == 0:
        print("FAILED: work counts differ between traced passes", file=sys.stderr)
    for job in bench.jobs:
        print(f"job {job.id} {job.instance} sha256 {bench.digests[job.id]}")
    print(f"passes untraced {len(bench.untraced)} traced {len(bench.traced)}, "
          f"host slowdown median {statistics.median(bench.slowdowns):.3f}, "
          f"unscaled wall_s {_wall(bench.unscaled)[0]:.6g} s")
    if args.trace:
        bench.tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl", bench.start)
        values, units = bench.per_layer(), PER_LAYER_UNITS
    else:
        values, units = bench.end_to_end(), END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = bench.attempted, bench.failed
    print(f"error_rate = {failed / attempted:.6g} (failed {failed} of {attempted} jobs)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
