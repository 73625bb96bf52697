"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 28 --trace 0

The inputs are a function of ``--seed`` alone.  The run sets the workload
up, then repeats whole rounds of the workload's operation list until
``--seconds`` have passed, checking every answer.  Between rounds it sets
the workload up again, for about a tenth of the measured time, so that
``setup_s`` (the median set-up) spans the run as the operations do.  It
times fixed calibration units between the operations and scales every
time it reports to a reference machine (see ``calibrate.py``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
measures half the time untraced and half traced and reports the per-layer
metrics plus the tracing overhead.

Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one JSON line of details (input sizes, rounds, the tail
percentile and how many samples lie beyond it, the unscaled figures and
the scale of each round, any failed checks).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import NEAREST, Calibration

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
#: Set-ups per run: MIN_SETUPS before the first round, then after each round
#: at most SETUPS_PER_ROUND more while set-ups have taken less than
#: SETUP_SHARE of the time measured so far, up to MAX_SETUPS in all.
MIN_SETUPS, SETUPS_PER_ROUND, SETUP_SHARE, MAX_SETUPS = 2, 3, 0.1, 60
#: Share of the measured time spent on calibration units (calibrate.py).
CALIBRATION_SHARE = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("logic.parse_ms_per_op", "ms"),
    ("plan.cache_hit_rate", "ratio"),
    ("plan.compile_ms_per_miss", "ms"),
    ("plan.execute_ms_per_op", "ms"),
    ("plan.steps_per_op", "count"),
    ("plan.holds_memo_hit_rate", "ratio"),
    ("plan.count_memo_hit_rate", "ratio"),
    ("plan.guard_scan_share", "ratio"),
    ("structures.first_access_ms", "ms"),
    ("structures.with_tuple_ms", "ms"),
    ("structures.ball_memo_hit_rate", "ratio"),
    ("sparse.cover_ms_per_op", "ms"),
    ("sparse.clusters_per_op", "count"),
    ("core.main_self_ms_per_op", "ms"),
    ("core.removal_ms_per_op", "ms"),
    ("core.removals_per_op", "count"),
    ("core.base_case_calls_per_op", "count"),
    ("core.repair_ms_per_update", "ms"),
    ("core.repair_ms_per_update.smallest", "ms"),
    ("core.repair_ms_per_update.largest", "ms"),
    ("core.recompute_ratio", "ratio"),
    ("parallel.pool_ms_per_op", "ms"),
    ("parallel.shards_per_op", "count"),
    ("parallel.core_utilisation", "ratio"),
    ("robust.main_stage_share", "ratio"),
    ("robust.stage_ms_per_op", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.quanta_per_op", "count"),
    ("serve.resumes_per_op", "count"),
    ("serve.respend_ratio", "ratio"),
    ("serve.batch_merged_per_op", "count"),
    ("serve.overhead_ms_per_op", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Per-layer counts that must repeat exactly at one seed.
EXACT = (
    "plan.cache_hit_rate",
    "plan.steps_per_op",
    "plan.holds_memo_hit_rate",
    "plan.count_memo_hit_rate",
    "plan.guard_scan_share",
    "structures.ball_memo_hit_rate",
    "sparse.clusters_per_op",
    "core.removals_per_op",
    "core.base_case_calls_per_op",
    "core.recompute_ratio",
    "parallel.shards_per_op",
    "robust.main_stage_share",
    "serve.quanta_per_op",
    "serve.resumes_per_op",
    "serve.respend_ratio",
    "serve.batch_merged_per_op",
)


def percentile(ordered, share: float):
    """Nearest-rank percentile of a sorted list and the samples beyond it."""
    rank = max(1, math.ceil(share / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class SetUps:
    """The timed set-ups of a run and the state the rounds run on.

    A set-up generates the inputs from the seed and builds the state (the
    structures, the engines and one warm-up pass).  The rounds of a run all
    use the state of the last set-up made before the first round; the set-ups
    made between rounds only add to ``times``, so the work of a round never
    depends on how many set-ups the clock allowed before it.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload, self.seed = workload, seed
        #: Set-up times, scaled to the reference machine, and unscaled.
        self.times: list = []
        self.raw_times: list = []
        self.inputs = self.state = None

    def run(self, keep: bool = True) -> None:
        if keep:
            # Structures and their views reference each other, so a dropped
            # state is only freed by the cycle collector; collect it before
            # building the next one so set-ups do not pile up in peak_rss_mb.
            self.inputs = self.state = None
        gc.collect()
        calibration = Calibration()
        calibration.run(NEAREST)
        start = time.perf_counter()
        inputs = self.workload.generate(self.seed)
        state = self.workload.build(inputs)
        end = time.perf_counter()
        calibration.run(NEAREST)
        self.raw_times.append(end - start)
        self.times.append((end - start) * calibration.scale(start, end))
        if keep:
            self.inputs, self.state = inputs, state


def measure(workload, setups, expected, seconds: float, traced: bool,
            set_up_between: bool = False):
    """Run one untimed warm-up round, then repeat whole rounds for
    ``seconds`` of wall time; returns the recorder and, when traced, the
    tracer, registry and instruments the rounds fed.  With
    ``set_up_between``, set-ups between rounds count against ``seconds``
    too.  Calibration units run after each operation and each round, and
    every latency and round gets its scale to the reference machine."""
    from repro.obs import MetricsRegistry, collect_metrics, trace_spans
    from tracing import Instruments, ThreadTracer
    from workloads import Recorder

    state = setups.state
    # The warm-up round fills what the first round on a structure leaves
    # behind (ball memos, plans of clusters), so every timed round does the
    # same work.  Its answers are checked like any other.
    warm = Recorder()
    workload.prepare(state)
    workload.run(state, warm, expected, traced=False)

    tracer = registry = instruments = None
    calibration = Calibration(CALIBRATION_SHARE)
    keep_up = lambda: calibration.keep_up(rec.wall_s)  # noqa: E731
    if traced:
        tracer, registry = ThreadTracer(), MetricsRegistry()
        instruments = Instruments(tracer)
        rec = Recorder(on_operation=instruments.new_operation, after_operation=keep_up)
    else:
        rec = Recorder(after_operation=keep_up)
    rec.untimed, rec.failed, rec.problems = len(warm.latencies), warm.failed, warm.problems
    start = time.perf_counter()
    deadline, iteration, spans = start + seconds, 0.0, [start]
    # Start a round only while at least half of one (as long as the last
    # took) fits before the deadline: a run misses ``seconds`` by half a
    # round at most, either way.
    while rec.rounds == 0 or start + iteration / 2 < deadline:
        # Every round starts from a collected heap, so that rounds see the
        # same collector work and peak_rss_mb does not depend on when the
        # cycle collector last ran.
        gc.collect()
        workload.prepare(state)
        wall, cpu = rec.wall_s, rec.cpu_s
        rec.round_starts.append(len(rec.latencies))
        spans.append(time.perf_counter())
        if traced:
            instruments.install()
            try:
                with trace_spans(tracer), collect_metrics(registry):
                    workload.run(state, rec, expected, traced=True)
            finally:
                instruments.remove()
        else:
            workload.run(state, rec, expected, traced=False)
        spans.append(time.perf_counter())
        keep_up()
        rec.rounds += 1
        rec.round_wall_s.append(rec.wall_s - wall)
        rec.round_cpu_s.append(rec.cpu_s - cpu)
        for _ in range(SETUPS_PER_ROUND if set_up_between else 0):
            if len(setups.times) >= MAX_SETUPS or sum(setups.times) >= SETUP_SHARE * rec.wall_s:
                break
            setups.run(keep=False)
        iteration = time.perf_counter() - start
        start += iteration
    spans.append(time.perf_counter())
    bounds = list(zip(rec.round_starts, rec.round_starts[1:] + [len(rec.latencies)]))
    if workload.concurrent:
        # No units run during a round of concurrent operations: each of them
        # takes the scale of all the units run between the rounds before
        # and after its own.
        for r, (first, last) in enumerate(bounds):
            scale = calibration.scale(spans[2 * r], spans[2 * r + 3], nearest=0)
            rec.scales.extend([scale] * (last - first))
    else:
        rec.scales = [
            calibration.scale(end - latency, end) for latency, end in zip(rec.latencies, rec.ends)
        ]
    # A round's scale is its latencies' scales, weighted by the latencies.
    for first, last in bounds:
        latencies = rec.latencies[first:last]
        scaled = sum(x * scale for x, scale in zip(latencies, rec.scales[first:last]))
        rec.round_scale.append(scaled / sum(latencies))
    return rec, tracer, registry, instruments


def ops_per_s(rec, scaled: bool = True) -> float:
    """Operations per round over the median round's wall time: every round
    does the same work, and the median is steadier than the total."""
    scales = rec.round_scale if scaled else [1.0] * rec.rounds
    walls = [wall * scale for wall, scale in zip(rec.round_wall_s, scales)]
    return len(rec.latencies) / rec.rounds / statistics.median(walls)


def scaled_latencies(rec):
    """Every operation's latency, scaled, sorted."""
    return sorted(latency * scale for latency, scale in zip(rec.latencies, rec.scales))


def end_to_end(rec, setup_times, tail_share):
    ordered = scaled_latencies(rec)
    tail, beyond = percentile(ordered, tail_share)
    cpu = statistics.median(c * scale for c, scale in zip(rec.round_cpu_s, rec.round_scale))
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s(rec),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "cpu_ms_per_op": cpu * 1e3 * rec.rounds / len(ordered),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, beyond


def per_layer(rec, tracer, registry, instruments, untraced_ops_per_s):
    ops = len(rec.latencies)
    count = registry.counter
    layer = rec.layer.get

    def rate(prefix: str) -> float:
        return ratio(count(prefix + ".hit"), count(prefix + ".hit") + count(prefix + ".miss"))

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    from tracing import COMPILE, FIRST_ACCESS, PARSE, POOL, REPAIR, WITH_TUPLE

    guard = sum(v for k, v in registry.counters.items() if k.startswith("evaluator.guard."))
    main_ran = tracer.calls("main_algorithm.") > 0
    repairs = sorted(
        (int(name.rsplit(".", 1)[1]), entry)
        for name, entry in tracer.totals.items()
        if name.startswith(REPAIR + ".")
    )
    traced_ops_per_s = ops_per_s(rec)
    serve_latency = layer("latency_s", 0.0)
    values = {
        "logic.parse_ms_per_op": per_op_ms(tracer.total_s(PARSE)),
        "plan.cache_hit_rate": rate("plan.cache"),
        "plan.compile_ms_per_miss": ratio(tracer.total_s(COMPILE) * 1e3, count("plan.cache.miss")),
        "plan.execute_ms_per_op": per_op_ms(tracer.self_s("foc1.")),
        "plan.steps_per_op": layer("plan_steps", 0.0) / ops,
        "plan.holds_memo_hit_rate": rate("evaluator.holds.memo"),
        "plan.count_memo_hit_rate": rate("evaluator.count.memo"),
        "plan.guard_scan_share": ratio(count("evaluator.guard.scan"), guard),
        "structures.first_access_ms": per_op_ms(tracer.total_s(FIRST_ACCESS)),
        "structures.with_tuple_ms": ratio(
            tracer.total_s(WITH_TUPLE) * 1e3, tracer.calls(WITH_TUPLE)
        ),
        "structures.ball_memo_hit_rate": rate("local.ball.memo"),
        "sparse.cover_ms_per_op": per_op_ms(tracer.self_s("cover.sparse")),
        "sparse.clusters_per_op": count("cover.clusters") / ops,
        "core.main_self_ms_per_op": per_op_ms(tracer.self_s("main_algorithm.")),
        "core.removal_ms_per_op": per_op_ms(tracer.total_s("removal.surgery")),
        "core.removals_per_op": count("main.removal") / ops,
        "core.base_case_calls_per_op": tracer.calls("foc1.") / ops if main_ran else 0.0,
        "core.repair_ms_per_update": ratio(
            tracer.total_s(REPAIR) * 1e3, tracer.calls(REPAIR)
        ),
        "core.repair_ms_per_update.smallest": (
            ratio(repairs[0][1][1] * 1e3, repairs[0][1][0]) if repairs else 0.0
        ),
        "core.repair_ms_per_update.largest": (
            ratio(repairs[-1][1][1] * 1e3, repairs[-1][1][0]) if repairs else 0.0
        ),
        "core.recompute_ratio": ratio(layer("recomputed", 0.0), layer("updates_x_order", 0.0)),
        "parallel.pool_ms_per_op": per_op_ms(tracer.total_s(POOL)),
        "parallel.shards_per_op": instruments.shards / ops,
        "parallel.core_utilisation": ratio(instruments.pool_cpu_s, instruments.pool_worker_s),
        "robust.main_stage_share": ratio(layer("main_answered", 0.0), layer("robust_ops", 0.0)),
        "robust.stage_ms_per_op": per_op_ms(tracer.self_s("robust.stage.")),
        "serve.queue_wait_ms_p50": (
            statistics.median(rec.queue_waits) * 1e3 if rec.queue_waits else 0.0
        ),
        "serve.quanta_per_op": layer("quanta", 0.0) / ops,
        "serve.resumes_per_op": layer("resumes", 0.0) / ops,
        "serve.respend_ratio": layer("respend_ratio", 0.0),
        "serve.batch_merged_per_op": count("serve.batch.merged") / ops,
        "serve.overhead_ms_per_op": (
            per_op_ms(
                serve_latency - sum(rec.queue_waits) - tracer.total_s("robust.stage.")
            )
            if serve_latency
            else 0.0
        ),
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.traced_ops_per_s": traced_ops_per_s,
        "trace.overhead_ratio": untraced_ops_per_s / traced_ops_per_s,
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the library sources are missing ({SOURCE})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    setups = SetUps(workload, args.seed)
    while len(setups.times) < MIN_SETUPS:
        setups.run()
    expected = workload.oracle(setups.inputs)

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": workload.describe(setups.inputs),
        "tail_percentile": workload.tail_percentile,
    }
    if args.trace:
        plain, *_ = measure(workload, setups, expected, args.seconds / 2, traced=False)
        rec, tracer, registry, instruments = measure(
            workload, setups, expected, args.seconds / 2, traced=True
        )
        if hasattr(workload, "unpreempted_steps"):
            plain_steps = workload.unpreempted_steps(setups.state) * rec.rounds
            rec.layer["respend_ratio"] = rec.layer["steps"] / plain_steps
        metrics = per_layer(rec, tracer, registry, instruments, ops_per_s(plain))
        units = dict(PER_LAYER)
        attempted = sum(len(r.latencies) + r.untimed for r in (plain, rec))
        failed = plain.failed + rec.failed
        problems = plain.problems + rec.problems
        details["rounds"] = [plain.rounds, rec.rounds]
        details["spans"] = {
            name: {"calls": int(e[0]), "total_s": e[1], "self_s": e[2]}
            for name, e in sorted(tracer.totals.items())
        }
    else:
        rec, *_ = measure(
            workload, setups, expected, args.seconds, traced=False, set_up_between=True
        )
        metrics, beyond = end_to_end(rec, setups.times, workload.tail_percentile)
        units = dict(END_TO_END)
        attempted = len(rec.latencies) + rec.untimed
        failed, problems = rec.failed, rec.problems
        details["rounds"] = rec.rounds
        details["samples"] = len(rec.latencies)
        details["tail_samples_beyond"] = beyond
        details["setup_runs_s"] = setups.times
        # The same figures unscaled, and the scale of each round.
        details["unscaled"] = {
            "setup_s": statistics.median(setups.raw_times),
            "ops_per_s": ops_per_s(rec, scaled=False),
            "latency_p50_ms": statistics.median(rec.latencies) * 1e3,
        }
        details["round_scale"] = rec.round_scale
    details["problems"] = problems
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
