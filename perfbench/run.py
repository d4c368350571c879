"""The repository benchmark: one command, three workloads, every output
checked against a golden oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload logs-monitor --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: operations run through the
engine's own entry points with no instrumentation.  ``--trace 1`` is the
separate traced run: every operation runs once through the entry point and
once decomposed into spanned layer calls (``layers.py``); it reports the
per-layer metrics, the span coverage of each operation and the tracing
overhead, and writes the spans as Chrome trace-event JSON.

A run repeats one pass of the workload (``workloads.py``) until
``--seconds`` have passed, after one untimed warm-up pass.  Each distinct
operation of a pass thus has one latency sample per pass; its latency is
the fastest of those samples, and the percentiles are taken over the
pass's distinct operations (for delays: over the distinct positions in
each enumeration).  Shared hosts switch between a fast and a slow speed
every few seconds (a fixed loop reads ~38 or ~58 ms on a 2-CPU virtual
machine); the fastest of several passes reads the same speed in every run,
where a median would read whichever speed the run happened to get more.

Human-readable lines (environment stamp, every metric with its unit, the
exact-count fingerprint) come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and traces are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fresh-process set-up samples per run (``setup_s`` is their median).
SETUP_SAMPLES = 7
#: Fresh-process samples of the interpreter start and of ``import repro.cli``.
CLI_SAMPLES = 5
#: ``repro corpus query`` invocations per logs-monitor run.
CLI_QUERIES = 5
#: In-process set-up repetitions of the traced run.
TRACED_SETUPS = 3

#: Fingerprint counters: engine statistics summed over one pass.
FINGERPRINT = (
    "mappings", "states_explored", "index_candidates",
    "tail_reused_layers", "tail_recomputed_layers",
)

#: Per-layer metrics that are the mean duration of one layer's spans.
PER_LAYER_SPANS = {
    "plan.adhoc_compile_ms": "plan.adhoc_compile",
    "backend.prepare_ms": "backend.prepare",
    "backend.run_ms": "backend.run",
    "backend.enumerate_ms": "backend.enumerate",
    "relation.build_ms": "relation.build",
    "index.plan_ms": "index.plan",
    "store.hydrate_ms": "store.hydrate",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# -- environment ---------------------------------------------------------------


def source_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    from repro.engine import DEFAULT_BACKEND, available_backends

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain source tree: the source digest identifies it
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(SOURCE),
        "benchmark_sha256": source_digest(HERE),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "default_backend": DEFAULT_BACKEND,
        "available_backends": available_backends(),
    }


# -- fresh-process probes -------------------------------------------------------


def probe(*args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def setup_seconds(workload, seed) -> list:
    inputs = WORK / f"{workload.name}-{seed}-inputs.json"
    inputs.write_text(json.dumps(workload.inputs()), encoding="utf-8")
    try:
        return [
            probe("setup", workload.name, str(inputs), str(WORK / f"probe-{os.getpid()}-{i}"))
            for i in range(SETUP_SAMPLES)
        ]
    finally:
        inputs.unlink()


def wall(command) -> float:
    start = time.perf_counter()
    subprocess.run(command, capture_output=True, timeout=150, check=True)
    return time.perf_counter() - start


# -- accounting ---------------------------------------------------------------


class Tally:
    """Operations attempted and failed, plus per-operation samples: one
    per pass for each operation index."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.elapsed = defaultdict(list)
        self.first = defaultdict(list)
        self.gaps = defaultdict(list)
        self.emitted = {}

    def record(self, op, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[op.label] += 1

    def merge_counts(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)

    @property
    def failed_frac(self) -> float:
        return ratio(self.failed, self.attempted)

    def fastest(self, index) -> float:
        return min(self.elapsed[index])


def emitted(output) -> int:
    """Mappings in an operation's output (0 for Boolean answers)."""
    if isinstance(output, list):
        return sum(len(item) for item in output if not isinstance(item, bool))
    return len(output)


def run_op(op, index, tally: Tally) -> None:
    """Run one operation untraced, time it, check it and account for it."""
    try:
        if op.kind == "enumerate":
            doc = op.source()
            output, gaps = [], []
            start = previous = time.perf_counter()
            for mapping in op.engine.enumerate(op.query, doc):
                now = time.perf_counter()
                if output:
                    gaps.append(now - previous)
                else:
                    first = now - start
                previous = now
                output.append(mapping)
            elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            output = op.e2e()
            elapsed = time.perf_counter() - start
        ok = op.check(output)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.record(op, False)
        return
    tally.record(op, ok)
    tally.elapsed[index].append(elapsed)
    if op.kind in ("call", "enumerate"):
        tally.emitted[index] = emitted(output)
    if op.kind == "enumerate" and output:
        tally.first[index].append(first)
        tally.gaps[index].append(gaps)


def corrupt(output):
    """A deliberately wrong copy of an operation's output."""
    if isinstance(output, list) and output and isinstance(output[0], bool):
        return [not output[0], *output[1:]]
    if isinstance(output, list) and output and not hasattr(output[0], "items"):
        for index, relation in enumerate(output):
            if len(relation):
                return output[:index] + [corrupt(relation)] + output[index + 1:]
    return list(output)[:-1]


def self_test(ops) -> bool:
    """Feed one corrupted output through the checker and the tally:
    ``failed_frac`` must count it."""
    op = next(op for op in ops if op.kind == "call")
    tally = Tally()
    output = op.e2e()
    tally.record(op, op.check(output))
    tally.record(op, op.check(corrupt(output)))
    return tally.failed == 1 and tally.failed_frac == 0.5


def fingerprint(delta) -> dict:
    return {name: getattr(delta, name) for name in FINGERPRINT}


def check_recorded(key: str, counts: dict) -> bool:
    """Compare a pass fingerprint with the one recorded by an earlier run
    of the same code, workload and seed (recording it if there is none)."""
    path = WORK / "fingerprints.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key not in recorded:
        recorded[key] = counts
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True), encoding="utf-8")
    return recorded[key] == counts


# -- the two kinds of run ---------------------------------------------------------


def run_untraced(state, ops, seconds, tally) -> "tuple[int, bool, dict]":
    """A warm-up pass, then passes for ``seconds`` (finishing the pass in
    progress).  Returns the timed passes, whether each had the warm-up
    pass's fingerprint, and that fingerprint."""
    stats = state["engine"].stats
    before = stats.snapshot()
    warm_up = Tally()
    for index, op in enumerate(ops):
        run_op(op, index, warm_up)
    tally.merge_counts(warm_up)
    reference = fingerprint(stats.delta(before))
    steady = True
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        before = stats.snapshot()
        for index, op in enumerate(ops):
            run_op(op, index, tally)
        passes += 1
        steady = steady and fingerprint(stats.delta(before)) == reference
        if time.perf_counter() >= deadline:
            return passes, steady, reference


def same(a, b) -> bool:
    """Whether two outputs are equal as mapping sets (or answers)."""

    def norm(x):
        if isinstance(x, list) and x and hasattr(x[0], "items"):
            return Counter(x)
        if isinstance(x, list):
            return [norm(item) for item in x]
        if isinstance(x, bool):
            return x
        return Counter(x)

    return norm(a) == norm(b)


def run_traced(state, ops, seconds, tally, tracer, layers) -> dict:
    """Run every operation end to end and decomposed, for ``seconds``."""
    stats = state["engine"].stats
    e2e_seconds = traced_seconds = 0.0
    reference = None
    steady = True
    deadline = time.perf_counter() + seconds
    counters = Counter()
    passes = 0
    while True:
        before = stats.snapshot()
        for op in ops:
            try:
                if op.decomposed is None:
                    with tracer.operation(op.label), tracer.span(op.label):
                        output = op.e2e()
                    ok = op.check(output)
                else:
                    start = time.perf_counter()
                    output = op.e2e()
                    e2e_seconds += time.perf_counter() - start
                    mark = len(tracer.spans)
                    with tracer.operation(op.label):
                        decomposed = op.decomposed(layers)
                    root = tracer.spans[mark]
                    traced_seconds += root[2] - root[1]
                    if op.kind == "append":
                        counters["append_seconds"] += root[2] - root[1]
                        counters["appends"] += 1
                    ok = op.check(output) and op.check(decomposed) and same(output, decomposed)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            tally.record(op, ok)
            if op.kind == "ingest" and ok:
                counters["ingested"] += len(output)
        delta = stats.delta(before)
        counts = fingerprint(delta)
        for name in ("plan_hits", "plan_misses", "store_retries"):
            counters[name] += getattr(delta, name)
        reference = reference or counts
        steady = steady and counts == reference
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "passes": passes,
        "fingerprint": reference,
        "steady": steady,
        "counters": counters,
        "overhead": ratio(traced_seconds, e2e_seconds) - 1.0,
    }


# -- metrics ------------------------------------------------------------------------


def e2e_metrics(ops, tally, setups) -> "tuple[dict, dict]":
    kinds = defaultdict(list)
    for index, op in enumerate(ops):
        if tally.elapsed[index]:
            kinds[op.kind].append(index)
    busy = kinds["call"] + kinds["enumerate"]
    emitting = [i for i in busy if not ops[i].label.startswith("is_nonempty")]
    calls = [tally.fastest(i) for i in kinds["call"]]
    appends = [tally.fastest(i) for i in kinds["append"]]
    ttfm = [min(tally.first[i]) for i in kinds["enumerate"] if tally.first[i]]
    gaps = [
        min(column)
        for i in kinds["enumerate"]
        for column in zip(*tally.gaps[i])
    ]
    ms = 1000.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "letters_per_s": (
            ratio(sum(ops[i].letters for i in busy), sum(tally.fastest(i) for i in busy)), "1/s"),
        "mappings_per_s": (
            ratio(sum(tally.emitted[i] for i in emitting), sum(tally.fastest(i) for i in emitting)), "1/s"),
        "call_p50_ms": (percentile(calls, 50) * ms, "ms"),
        "call_p90_ms": (percentile(calls, 90) * ms, "ms"),
        "ttfm_p50_ms": (percentile(ttfm, 50) * ms, "ms"),
        "delay_p50_us": (percentile(gaps, 50) * 1e6, "us"),
        "delay_p99_us": (percentile(gaps, 99) * 1e6, "us"),
        "append_p50_ms": (percentile(appends, 50) * ms, "ms"),
        "append_p90_ms": (percentile(appends, 90) * ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, kinds


def sample_counts(tally, kinds) -> dict:
    return {
        "calls": (sum(len(tally.elapsed[i]) for i in kinds["call"]), "count"),
        "gaps": (sum(len(g) for i in kinds["enumerate"] for g in tally.gaps[i]), "count"),
        "appends": (sum(len(tally.elapsed[i]) for i in kinds["append"]), "count"),
    }


def layer_metrics(tracer, setup_tracers, layers, traced, state) -> dict:
    self_times = tracer.self_times()

    def mean_ms(name):
        values = self_times.get(name, [])
        return statistics.fmean(values) * 1000.0 if values else 0.0

    def setup_ms(name):
        return statistics.median(
            sum(t.self_times().get(name, [])) for t in setup_tracers
        ) * 1000.0

    counters = traced["counters"]
    fp = traced["fingerprint"]
    reused, recomputed = fp["tail_reused_layers"], fp["tail_recomputed_layers"]
    enumerate_s = sum(self_times.get("backend.enumerate", []))
    metrics = {
        "va.compile_ms": (setup_ms("va.compile"), "ms"),
        "plan.prepare_ms": (setup_ms("plan.prepare"), "ms"),
        "plan.hit_ratio": (
            ratio(counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"]), "ratio"),
        "plan.adhoc_states": (
            statistics.fmean(layers.adhoc_states) if layers.adhoc_states else 0.0, "count"),
        "backend.us_per_mapping": (ratio(enumerate_s, layers.drained) * 1e6, "us"),
        "backend.states_explored": (fp["states_explored"], "count"),
        "prefilter.admit_ratio": (ratio(layers.admitted, layers.checked), "ratio"),
        "prefilter.precision": (ratio(layers.admitted_hits, layers.admitted), "ratio"),
        "index.candidate_ratio": (ratio(layers.index_candidates, layers.index_scope), "ratio"),
        "index.precision": (ratio(layers.index_hits, layers.index_candidates), "ratio"),
        "store.add_ms_per_doc": (
            ratio(sum(self_times.get("store.add", [])), counters["ingested"]) * 1000.0, "ms"),
        "store.retries": (counters["store_retries"], "count"),
        "store.bytes_per_letter": (store_bytes_per_letter(state.get("store")), "B/letter"),
        "tail.reevaluate_ms": (
            ratio(counters["append_seconds"], counters["appends"]) * 1000.0, "ms"),
        "tail.reuse_ratio": (ratio(reused, reused + recomputed), "ratio"),
        "tail.fresh_ratio": (ratio(layers.tail_fresh, layers.tail_enumerated), "ratio"),
        "trace.coverage_min": (min(tracer.coverage()), "ratio"),
        "trace.overhead_ratio": (traced["overhead"], "ratio"),
    }
    for metric, span in PER_LAYER_SPANS.items():
        metrics[metric] = (mean_ms(span), "ms")
    return metrics


def store_bytes_per_letter(store) -> float:
    """Bytes of the sqlite file and its write-ahead log per stored letter."""
    if store is None:
        return 0.0
    files = [store.path, Path(f"{store.path}-wal")]
    size = sum(path.stat().st_size for path in files if path.exists())
    return ratio(size, store.stats()["total_letters"])


def cli_metrics() -> dict:
    bare = [wall([sys.executable, "-c", "pass"]) for _ in range(CLI_SAMPLES)]
    imports = [probe("import") for _ in range(CLI_SAMPLES)]
    return {
        "cli.interpreter_ms": (statistics.median(bare) * 1000.0, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1000.0, "ms"),
    }


def cli_queries(workload, state, tally) -> "list[float]":
    """``repro corpus query`` wall times (logs-monitor only)."""
    if not hasattr(workload, "cli_op"):
        return []
    cli = Tally()
    for _ in range(CLI_QUERIES):
        run_op(workload.cli_op(state), "cli", cli)
    tally.merge_counts(cli)
    return cli.elapsed["cli"]


def traced_setups(workload, tracer_class) -> list:
    """Set the workload up several times, each under its own tracer."""
    tracers = []
    for i in range(TRACED_SETUPS):
        tracer = tracer_class()
        workdir = WORK / f"run-{os.getpid()}-setup{i}"
        with tracer.operation("setup"):
            state = workload.setup(workdir, tracer)
        if "store" in state:
            state["store"].close()
        shutil.rmtree(workdir, ignore_errors=True)
        tracers.append(tracer)
    return tracers


# -- main -----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SOURCE}; run from the repository root")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    from layers import Layers
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    env = environment()
    workload = WORKLOADS[args.workload](args.seed)
    # The inputs and oracles live for the whole run; frozen, they stay out
    # of the collector's scans, so the program's garbage collections cost
    # what they would cost without the benchmark's own heap around them.
    gc.collect()
    gc.freeze()
    print(f"workload {workload.name} seed {args.seed}: {workload.describe()}")
    print("environment " + json.dumps(env, sort_keys=True))

    setups = [] if args.trace else setup_seconds(workload, args.seed)
    setup_tracers = traced_setups(workload, Tracer) if args.trace else []
    workdir = WORK / f"run-{os.getpid()}"
    state = workload.setup(workdir)
    tally = Tally()
    try:
        ops = workload.ops(state)
        self_test_ok = self_test(ops)
        if args.trace:
            for index, op in enumerate(ops):  # warm-up pass
                run_op(op, index, tally)
            tracer = Tracer()
            layers = Layers(tracer, state["engine"])
            traced = run_traced(state, ops, args.seconds, tally, tracer, layers)
            metrics = layer_metrics(tracer, setup_tracers, layers, traced, state)
            metrics.update(cli_metrics())
            cli = cli_queries(workload, state, tally)
            metrics["cli.query_ms"] = (statistics.median(cli) * 1000.0 if cli else 0.0, "ms")
            trace_path = WORK / "results" / f"{workload.name}-seed{args.seed}.trace.json"
            tracer.write_chrome(trace_path)
            print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
            passes, steady, counts = traced["passes"], traced["steady"], traced["fingerprint"]
            extra = {}
        else:
            passes, steady, counts = run_untraced(state, ops, args.seconds, tally)
            metrics, kinds = e2e_metrics(ops, tally, setups)
            extra = sample_counts(tally, kinds)
            cli = cli_queries(workload, state, tally)
            if cli:
                ingests = kinds["ingest"]
                extra["ingest_docs_per_s"] = (ratio(
                    len(workload.batch) * len(ingests), sum(tally.fastest(i) for i in ingests)), "1/s")
                extra["store_bytes_per_letter"] = (store_bytes_per_letter(state["store"]), "B/letter")
                extra["cli_p50_ms"] = (statistics.median(cli) * 1000.0, "ms")
        extra["failed_frac"] = (tally.failed_frac, "ratio")
    finally:
        if "store" in state:
            state["store"].close()
        shutil.rmtree(workdir, ignore_errors=True)

    key = f"{workload.name}/{args.seed}/{env['source_sha256']}/{env['benchmark_sha256']}"
    recorded_ok = check_recorded(key, counts)
    correct = tally.failed == 0 and self_test_ok and steady and recorded_ok
    print(f"passes {passes}; fingerprint {json.dumps(counts, sort_keys=True)}"
          f" (steady across passes: {steady}; matches earlier runs: {recorded_ok})")
    print(f"self-test (one corrupted output counted as failed): {'ok' if self_test_ok else 'FAILED'}")
    for failure, count in sorted(tally.failures.items()):
        print(f"FAILED {count}x {failure}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "passes": passes,
        "fingerprint": counts, "result": result,
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
    }
    out = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
