"""qbagx benchmark: one closed-loop client runs a workload against the public
qbagx API, checks the outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload explain|eval|exact --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
workload's inputs are generated from --seed during set-up, which is repeated
(see SETUP_MIN_REPEATS) and reported as its median. One list of operations
is a pass. After a warm-up, the first pass always runs to the end; further
passes run until --seconds have passed. Every latency and set-up time is
scaled to the host's nominal speed (see hostspeed.py); an operation's
latency is its median over the passes that ran it. Exact counts and output
checks come from the first pass, so they repeat bit for bit for a fixed seed.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs every other operation with tracing on, alternating from pass
to pass, records a span around every call into a package module, writes
the spans to .perfbench-out/<workload>-<seed>.jsonl and prints the
per-layer metrics (self times scaled like latencies) and the tracing
overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread keeps the single closed-loop client
# on one core of a small shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_MIN_REPEATS = 3   # set-up runs at least this often,
SETUP_MIN_SECONDS = 4.0  # and until this much time has passed
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# name -> (unit, description); the traced run prints PER_LAYER, the untraced END_TO_END.
END_TO_END = {
    "setup_s": ("s", "median time of one set-up (input generation and serialisation), at nominal host speed"),
    "ops_per_s": ("1/s", "operations per second of one closed-loop client: a pass's operations over "
                         "the sum of their latencies, at nominal host speed"),
    "op_p50_ms": ("ms", "median operation latency, at nominal host speed"),
    "op_tail_ms": ("ms", "latency at the highest percentile with 10 operations beyond it, at nominal host speed"),
    "valid_frac": ("frac", "share of first-pass operations solved and independently verified"),
    "kendall_mean": ("tau", "mean Kendall tau between target ordering and achieved strengths"),
    "bs_diff_mean": ("score", "mean base-score change per changed or mutable argument over valid runs"),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
}
PER_LAYER = {
    "generators.busy_s": ("s", "self time in generators per set-up"),
    "generators.instances": ("count", "instances generated per set-up (exact)"),
    "graph.parse_s": ("s/op", "self time in parse_qbag per operation"),
    "graph.serialize_s": ("s", "self time in serialize_qbag per set-up"),
    "semantics.compile_s": ("s/op", "self time in compile_graph inside the benchmark's own final_strengths "
                                    "calls per operation; compiles inside search or satisfies are not visible"),
    "semantics.compile_calls": ("count", "the benchmark's own final_strengths calls per pass, one compile "
                                         "each (exact); calls inside search or satisfies are not visible"),
    "semantics.evaluate_s": ("s/op", "self time in the rest of the benchmark's own final_strengths calls "
                                     "(evaluate_matrix, domain check, result dict) per operation"),
    "semantics.columns": ("count", "columns per evaluate_matrix call in the benchmark's own final_strengths "
                                   "calls (one each); oracle.grid_points covers the wide batches"),
    "search.busy_s": ("s/op", "self time in heuristic_search per operation"),
    "search.iterations": ("count", "sum of iterations_used per pass (exact)"),
    "search.ms_per_iteration": ("ms", "heuristic_search self time per iteration"),
    "search.found_ratio": ("frac", "searches that found a change / searches attempted"),
    "explanation.verify_s": ("s/op", "self time in is_explanation and amount_of_change per operation"),
    "metrics.rank_s": ("s/op", "self time in kendall_tau and spearman_rho per operation"),
    "oracle.busy_s": ("s/op", "self time in certify_epsilon and brute_force_search per operation"),
    "oracle.grid_points": ("count", "grid assignments per pass that the oracle calls enumerate, computed "
                                    "from the grid spec and the inputs, not observed (exact)"),
    "oracle.bytes_computed": ("B", "bytes per pass computed from oracle.grid_points and array sizes: "
                                   "float64 base scores and strengths plus the bool mask, per point and argument"),
    "reductions.inverse_s": ("s/op", "self time in solve_inverse per operation"),
    "reductions.counterfactual_s": ("s/op", "self time in solve_counterfactual per operation"),
    "reductions.counterfactual_iterations": ("count", "search iterations of solve_counterfactual per pass (exact)"),
    "reductions.solved_ratio": ("frac", "inverse and counterfactual problems solved / attempted"),
    "trace.ops_per_s": ("1/s", "ops_per_s with tracing on, at nominal host speed"),
    "trace.overhead_frac": ("frac", "traced / untraced latency - 1, over operations run both ways"),
    "trace.accounted_frac": ("frac", "share of traced operation time spent in layer spans (self time)"),
    "trace.spans_per_op": ("count", "spans recorded per traced operation"),
}

# Self-time span-name prefixes per per-operation layer metric.
LAYER_SPANS = {
    "graph.parse_s": ("graph.parse_qbag",),
    "semantics.compile_s": ("semantics.compile_graph",),
    "semantics.evaluate_s": ("semantics.evaluate_matrix", "semantics.check_scores_in_domain",
                             "semantics.final_strengths"),
    "search.busy_s": ("search.",),
    "explanation.verify_s": ("explanation.",),
    "metrics.rank_s": ("metrics.",),
    "oracle.busy_s": ("oracle.",),
    "reductions.inverse_s": ("reductions.solve_inverse",),
    "reductions.counterfactual_s": ("reductions.solve_counterfactual",),
}

# The running example: base scores and golden final strengths under the
# additive semantics, for the graph and three changed versions of it.
RUNNING_EXAMPLE_EDGES = ([("a", "b"), ("d", "e")], [("a", "c"), ("e", "c"), ("d", "a")])
RUNNING_EXAMPLE = (
    ({"a": 1, "b": 8, "c": 1, "d": 1, "e": 2}, {"a": 2, "b": 6, "c": 4, "d": 1, "e": 1}),
    ({"a": 2, "b": 8, "c": 1, "d": 1, "e": 3}, {"a": 3, "b": 5, "c": 6, "d": 1, "e": 2}),
    ({"a": 3, "b": 8, "c": 1, "d": 1, "e": 2}, {"a": 4, "b": 4, "c": 6, "d": 1, "e": 1}),
    ({"a": 2, "b": 8, "c": 1, "d": 1, "e": 4}, {"a": 3, "b": 5, "c": 7, "d": 1, "e": 3}),
)


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import qbagx
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qbagx from {SRC}: {exc}")
    if Path(qbagx.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: qbagx was imported from {qbagx.__file__}, not from {SRC}")
    return qbagx


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def running_example_errors(q) -> list[str]:
    """Golden values of the running example, plus one call into each layer
    so that lazy imports and BLAS set-up happen before timing."""
    errors = []
    attacks, supports = RUNNING_EXAMPLE_EDGES
    for scores, golden in RUNNING_EXAMPLE:
        g = q.make_qbag(scores, attacks, supports)
        sigma = q.final_strengths(g, q.NAIVE)
        if sigma != {a: float(v) for a, v in golden.items()}:
            errors.append(f"running example {scores}: strengths {sigma} != golden {golden}")
        if q.parse_qbag(q.serialize_qbag(g)) != g:
            errors.append("running example does not survive a JSON round trip")
    g = q.make_qbag(RUNNING_EXAMPLE[0][0], attacks, supports)
    query = q.ExplanationQuery(g, q.NAIVE, frozenset({"a", "e"}), q.ordering_from_tiers([["b"], ["c"]]))
    outcome = q.heuristic_search(query, q.SearchConfig())
    if not (outcome.found and q.is_explanation(query, outcome.change, mode="weak")):
        errors.append("running example: the search found no verified explanation")
    oracle = q.brute_force_search(query, q.GridSpec(step=0.25, lower=0, upper=4), mode="exact")
    if oracle.best is None or not q.is_explanation(query, oracle.best, mode="exact"):
        errors.append("running example: the oracle witness is not an explanation")
    strengths = q.final_strengths(g, q.NAIVE)
    q.kendall_tau(query.ordering, strengths)
    q.spearman_rho(query.ordering, strengths)
    return errors


def run_pass(wl, items, tracer, host, counts, pass_no, latencies, traced=None, traced_counts=None,
             results=None, deadline=None):
    """Run the operations of one pass in order, appending operation k's
    latency, scaled to the nominal host speed, to latencies[k]; returns
    (operations run, failed). The host's speed is sampled between operations.
    When `traced` is given, every other operation (alternating from pass to
    pass) runs with tracing on, and its latency goes to traced[k] and its
    counts also to traced_counts. With a deadline the pass stops after the
    operation that crosses it."""
    from workloads import OP_ERRORS

    failed = 0
    intervals = []
    for k, item in enumerate(items):
        trace_op = traced is not None and (k + pass_no) % 2 == 1
        op_counts = Counter()
        tracer.enabled = trace_op
        tracer.op_id = f"{pass_no}:{k}"
        start = perf_counter()
        try:
            res = tracer.call("op." + item.kind, wl.op, item, tracer, op_counts)
        except OP_ERRORS:
            res = None
            failed += 1
        end = perf_counter()
        tracer.enabled = False
        host.maybe_sample()
        intervals.append((traced if trace_op else latencies, k, start, end))
        counts.update(op_counts)
        if trace_op:
            traced_counts.update(op_counts)
        if results is not None:
            results.append(res)
        if deadline is not None and end >= deadline:
            break
    host.sample()  # the last operations need samples after them
    for target, k, start, end in intervals:
        target[k].append(host.scaled(start, end))
    return k + 1, failed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that leaves at
    least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def mean_of(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("explain", "eval", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    q = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostspeed import REF_NOMINAL_S, HostSpeed, SampledCalls
    from tracing import Tracer, self_times
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    machine = machine_info()
    print("machine " + json.dumps(machine, sort_keys=True))
    tracer = Tracer()
    host = HostSpeed()

    setup_times = []
    setup_start = perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or perf_counter() - setup_start < SETUP_MIN_SECONDS:
        calls = SampledCalls(host)
        items = wl.setup(args.seed, calls)
        setup_times.append(calls.scaled_total())
    if args.trace:  # one more set-up, traced, for the generator and serialiser spans
        tracer.enabled = True
        tracer.op_id = "setup"
        items = wl.setup(args.seed, tracer)
        tracer.enabled = False

    errors = running_example_errors(q)
    seen_kinds = set()
    for item in items:  # warm-up: the first operation of each kind, untimed
        if item.kind not in seen_kinds:
            seen_kinds.add(item.kind)
            run_pass(wl, [item], tracer, host, Counter(), "warmup", [[]])

    first_counts: Counter = Counter()
    traced_counts: Counter = Counter()
    results: list = []
    latencies = [[] for _ in items]
    traced_latencies = [[] for _ in items] if args.trace else None
    attempted = failed = 0
    start = perf_counter()
    deadline = start + args.seconds
    pass_no = 0
    while True:
        # Traced runs finish whole passes, at least two, so that every
        # operation runs both with and without tracing.
        counts = first_counts if pass_no == 0 else Counter()
        ran, fails = run_pass(wl, items, tracer, host, counts, pass_no, latencies,
                              traced_latencies, traced_counts,
                              results=results if pass_no == 0 else None,
                              deadline=None if (pass_no == 0 or args.trace) else deadline)
        if ran == len(items) and counts != first_counts:
            errors.append("a later pass counted differently from the first: outputs are not deterministic")
        attempted += ran
        failed += fails
        pass_no += 1
        if perf_counter() >= deadline and (not args.trace or pass_no >= 2):
            break
    wall = perf_counter() - start

    errors += wl.check(items, results)

    exact_counts = {k: first_counts[k] for k in sorted(first_counts)}
    print("counts " + json.dumps(exact_counts, sort_keys=True))
    print(f"failed_frac {failed / attempted:.6g} frac  ({failed} of {attempted} operations raised a library error)")
    print(f"host speed: reference loop median {host.median_s() * 1e3:.4g} ms over {len(host.samples)} samples, "
          f"nominal {REF_NOMINAL_S * 1e3:.4g} ms; times below are scaled by nominal / local median")

    if not args.trace:
        # Each operation's latency is its median over the passes that ran it,
        # which filters out bursts of interference on a shared host.
        op_latency = [statistics.median(v) for v in latencies]
        tail_ms, pct, n = tail(op_latency)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(op_latency) / sum(op_latency),
            "op_p50_ms": statistics.median(op_latency) * 1e3,
            "op_tail_ms": tail_ms * 1e3,
            "valid_frac": sum(1 for r in results if r is not None and r["valid"]) / len(results),
            "kendall_mean": mean_of(r["kendall"] for r in results if r is not None),
            "bs_diff_mean": mean_of(r["bs_diff"] for r in results if r is not None),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        table = END_TO_END
        print(f"op_tail_ms is p{pct:.2f} of {n} operations ({TAIL_BEYOND} beyond it); "
              f"{pass_no} passes of {len(items)} operations, {attempted} run in {wall:.2f}s "
              f"({attempted / wall:.4g} ops/s wall clock); setup_s is the median of {len(setup_times)} set-ups")
    else:
        metrics = layer_metrics(tracer.spans, latencies, traced_latencies, traced_counts, first_counts,
                                partial(self_times, duration=host.scaled))
        table = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-{args.seed}.jsonl"
        tracer.write(path, machine)
        print(f"spans written to {path.relative_to(ROOT)}")

    for name, (unit, description) in table.items():
        print(f"{name:<40} {metrics[name]:<14.6g} {unit:<6} {description}")
    for e in errors:
        print("CHECK FAILED: " + e, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in table.items()},
    }))
    return 0


def layer_metrics(spans, latencies, traced_latencies, traced_counts, first, self_times) -> dict:
    """Per-layer figures: times from the traced set-up and operations, exact
    counts from the first pass, and the tracing overhead from operations
    that ran both with and without tracing. self_times(spans, keep) gives
    self times at the nominal host speed."""
    in_setup = lambda span: span[4] == "setup"
    own = self_times(spans, lambda span: not in_setup(span))
    setup_own = self_times(spans, in_setup)
    op_spans = [s for s in spans if not in_setup(s)]
    n_traced = sum(len(v) for v in traced_latencies)
    both = [k for k, v in enumerate(traced_latencies) if v and latencies[k]]
    traced_s = sum(statistics.median(traced_latencies[k]) for k in both)
    untraced_s = sum(statistics.median(latencies[k]) for k in both)

    def busy(prefixes) -> float:
        return sum(v for name, v in own.items() if name.startswith(prefixes))

    op_time = sum(own.values())  # self times add up to the operations' root spans
    layer_time = sum(v for name, v in own.items() if not name.startswith("op."))
    search_iterations = traced_counts["search.iterations"]
    metrics = {name: busy(prefixes) / n_traced for name, prefixes in LAYER_SPANS.items()}
    metrics.update({
        "generators.busy_s": sum(v for name, v in setup_own.items() if name.startswith("generators.")),
        "generators.instances": sum(1 for s in spans if in_setup(s) and s[0].startswith("generators.")),
        "graph.serialize_s": setup_own.get("graph.serialize_qbag", 0.0),
        "semantics.compile_calls": first["semantics.final_strengths_calls"],
        "semantics.columns": 1.0 if first["semantics.final_strengths_calls"] else 0.0,
        "search.iterations": first["search.iterations"],
        "search.ms_per_iteration": busy(("search.",)) * 1e3 / search_iterations if search_iterations else 0.0,
        "search.found_ratio": first["search.found"] / first["search.attempts"] if first["search.attempts"] else 0.0,
        "oracle.grid_points": first["oracle.grid_points"],
        "oracle.bytes_computed": first["oracle.bytes_computed"],
        "reductions.counterfactual_iterations": first["reductions.counterfactual_iterations"],
        "reductions.solved_ratio": first["reductions.solved"] / max(
            1, first["reductions.inverse_attempts"] + first["reductions.counterfactual_attempts"]),
        "trace.ops_per_s": len(both) / traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.accounted_frac": layer_time / op_time if op_time else 0.0,
        "trace.spans_per_op": len(op_spans) / n_traced,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
