"""One benchmark run: set up (several times), measure, check, report.

An untraced run reports the end-to-end metrics.  A traced run measures
half its time untraced and half with the layer wrappers installed, in
alternating blocks, and reports the per-layer metrics plus the tracing
overhead of the traced blocks against the untraced ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

from . import tracing
from .measure import (
    host_fingerprint,
    peak_rss_mb,
    summarize,
    summarize_classes,
)
from .workloads import WORKLOADS, Recorder

SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("throughput_ops", "ops/s"),
    ("peak_rss_mb", "MiB"),
)

KERNELS = ("factorize", "encode_keys", "build_probe_index",
           "equi_join_pairs", "group_ids", "distinct_indices",
           "scatter_update", "sort_indices", "take", "cache")
STEPS = ("materialize", "movement", "loop_control", "merge", "delta")
NODES = ("scan", "filter", "project", "join", "aggregate", "setop", "sort",
         "materialize")

# name -> unit, in report order.
PER_LAYER = {
    "sql.parse_calls": "count/op", "sql.parse_ms": "ms/op",
    "sql.normalize_ms": "ms/op",
    "plan.compile_calls": "count/op", "plan.compile_ms": "ms/op",
    "plan.cache_ms": "ms/op", "plan.cache_hit_ratio": "ratio",
    "plan.cache_shape_hits": "count/op",
    "plan.cache_invalidations": "count/op",
    "runtime.run_ms": "ms/op", "runtime.iterations": "count/op",
    **{f"runtime.step_{step}_ms": "ms/op" for step in STEPS},
    "runtime.strategy_demotions": "count/op",
    "runtime.strategy_promotions": "count/op",
    **{f"execution.{node}_ms": "ms/op" for node in NODES},
    "execution.rows_scanned": "rows/op", "execution.rows_joined": "rows/op",
    "execution.rows_aggregated": "rows/op",
    "execution.bytes_materialized": "bytes/op",
    "execution.bytes_moved": "bytes/op",
    **{f"kernels.{kernel}_ms": "ms/op" for kernel in KERNELS},
    "kernels.calls": "count/op", "kernels.rows": "rows/op",
    "kernel_cache.dictionary_hit_ratio": "ratio",
    "kernel_cache.join_index_hit_ratio": "ratio",
    "kernel_cache.invalidations": "count/op",
    "storage.insert_ms": "ms/op", "storage.delete_ms": "ms/op",
    "storage.update_ms": "ms/op", "storage.catalog_ms": "ms/op",
    "storage.rows_written": "rows/op",
    "engine.write_lock_wait_ms": "ms/op",
    "engine.write_lock_hold_ms": "ms/op",
    "server.queue_wait_ms": "ms", "server.service_ms": "ms",
    "server.rejected": "count", "server.peak_outstanding": "count",
    "serve.generator_lag_ms": "ms", "serve.max_rate_rps": "req/s",
    "mpp.supersteps": "count/op", "mpp.superstep_ms": "ms/op",
    "mpp.rows_moved": "rows/op", "mpp.bytes_moved": "bytes/op",
    "mpp.shuffles": "count/op", "mpp.suppressed_bytes": "bytes/op",
    "mpp.worker_peak_rss_mb": "MiB",
    **{f"layer.{layer}_self_ms": "ms/op"
       for layer in tracing.LAYERS + ("client",)},
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(totals: dict, delta: dict, ops: int,
                  server: dict) -> dict[str, float]:
    """Per-layer values of a traced window of ``ops`` operations.

    ``totals`` comes from :meth:`LayerTracer.totals`, ``delta`` is the
    difference of the workload's counters across the window, and
    ``server`` holds the serve-only figures."""
    ops = max(ops, 1)

    def per_op(value: float) -> float:
        return value / ops

    def ms(kind: str, *names: str) -> float:
        return sum(totals[kind].get(n, 0.0) for n in names) * 1e3 / ops

    def count(key: str) -> float:
        return per_op(delta.get(key, 0))

    kernel_spans = [f"kernels.{k}" for k in KERNELS]
    values = {
        "sql.parse_calls": per_op(totals["calls"].get("sql.parse", 0)),
        "sql.parse_ms": ms("inclusive", "sql.parse"),
        "sql.normalize_ms": ms("inclusive", "sql.normalize"),
        "plan.compile_calls": per_op(totals["calls"].get("plan.compile",
                                                         0)),
        "plan.compile_ms": ms("inclusive", "plan.compile"),
        "plan.cache_ms": ms("self", "plan.cache"),
        "plan.cache_hit_ratio": _ratio(delta.get("plan_cache_hits", 0),
                                       delta.get("plan_cache_misses", 0)),
        "plan.cache_shape_hits": count("plan_cache_shape_hits"),
        "plan.cache_invalidations": count("plan_cache_invalidations"),
        "runtime.run_ms": ms("inclusive", "runtime.run"),
        "runtime.iterations": count("iterations"),
        "runtime.strategy_demotions": count("strategy_demotions"),
        "runtime.strategy_promotions": count("strategy_promotions"),
        "execution.rows_scanned": count("rows_scanned"),
        "execution.rows_joined": count("rows_joined"),
        "execution.rows_aggregated": count("rows_aggregated"),
        "execution.bytes_materialized": count("bytes_materialized"),
        "execution.bytes_moved": count("bytes_moved"),
        "kernels.calls": per_op(sum(totals["calls"].get(n, 0)
                                    for n in kernel_spans)),
        "kernels.rows": per_op(sum(totals["rows"].get(n, 0)
                                   for n in kernel_spans)),
        "kernel_cache.dictionary_hit_ratio": _ratio(
            delta.get("kernel_cache_hits", 0),
            delta.get("kernel_cache_misses", 0)),
        "kernel_cache.join_index_hit_ratio": _ratio(
            delta.get("join_index_hits", 0),
            delta.get("join_index_misses", 0)),
        "kernel_cache.invalidations": count("kernel_cache_invalidations"),
        "storage.insert_ms": ms("inclusive", "storage.insert"),
        "storage.delete_ms": ms("inclusive", "storage.delete"),
        "storage.update_ms": ms("inclusive", "storage.update"),
        "storage.catalog_ms": ms("self", "storage.catalog",
                                 "storage.snapshot"),
        "storage.rows_written": per_op(sum(
            totals["rows"].get(n, 0) for n in
            ("storage.insert", "storage.delete", "storage.update"))),
        "engine.write_lock_wait_ms": ms("inclusive",
                                        "storage.write_lock_wait"),
        "engine.write_lock_hold_ms": ms("inclusive",
                                        "storage.write_lock_hold"),
        "server.rejected": delta.get("server.rejected", 0),
        "server.peak_outstanding": server.get("peak_outstanding", 0),
        "server.queue_wait_ms": server.get("queue_wait_ms", 0.0),
        "server.service_ms": server.get("service_ms", 0.0),
        "serve.generator_lag_ms": server.get("generator_lag_ms", 0.0),
        "serve.max_rate_rps": server.get("max_rate_rps", 0.0),
        "mpp.supersteps": count("mpp.iterations"),
        "mpp.superstep_ms": ms("inclusive", "mpp.superstep"),
        "mpp.rows_moved": count("mpp.rows_moved"),
        "mpp.bytes_moved": count("mpp.bytes_moved"),
        "mpp.shuffles": count("mpp.shuffles"),
        "mpp.suppressed_bytes": count("mpp.suppressed_bytes"),
    }
    for step in STEPS:
        values[f"runtime.step_{step}_ms"] = ms("inclusive",
                                               f"runtime.step_{step}")
    for node in NODES:
        values[f"execution.{node}_ms"] = ms("self", f"execution.{node}")
    for kernel in KERNELS:
        values[f"kernels.{kernel}_ms"] = ms("self", f"kernels.{kernel}")
    for layer in tracing.LAYERS + ("client",):
        values[f"layer.{layer}_self_ms"] = \
            totals["layer_self"].get(layer, 0.0) * 1e3 / ops
    return values


def _overhead_pct(untraced: Recorder, traced: Recorder) -> float:
    """Mean latency of the traced half over the untraced half, per
    statement class, averaged; in percent."""
    base = untraced.mean_latency()
    with_trace = traced.mean_latency()
    common = [k for k in base if k in with_trace]
    if not common:
        return 0.0
    return (statistics.fmean(with_trace[k] / base[k] for k in common)
            - 1.0) * 100.0


def _summaries(workload, recorder: Recorder) -> tuple[dict, dict]:
    if workload.cycled:
        return (summarize_classes(recorder.samples["read"]),
                summarize_classes(recorder.samples["write"]))
    pooled = {kind: [v for values in by_class.values() for v in values]
              for kind, by_class in recorder.samples.items()}
    return summarize(pooled["read"]), summarize(pooled["write"])


def run(name: str, seed: int, seconds: float, trace: bool,
        nodes: int | None = None, trace_dir: Path | None = None) -> dict:
    """Run one workload; returns the result object plus a detail dict."""
    cls = WORKLOADS[name]
    workload = cls(seed) if nodes is None else cls(seed, nodes)
    workload.prepare()
    # Before set-up, which may pin the process to one CPU.
    host = host_fingerprint()
    setups = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    # Start every measurement from the same collector state.
    gc.collect()
    detail = {"workload": name, "seed": seed, "host": host,
              "setup_s_samples": [round(s, 4) for s in setups]}
    try:
        if trace:
            recorder, metrics = _traced(workload, seconds, detail,
                                        trace_dir)
        else:
            recorder, metrics = _untraced(workload, seconds, detail)
        errors = workload.check()
    finally:
        workload.teardown()
    detail["worker_peak_rss_mb"] = workload.worker_peak_rss_mb
    if trace:
        metrics["mpp.worker_peak_rss_mb"] = workload.worker_peak_rss_mb
    else:
        metrics["setup_s"] = statistics.median(setups)
        # Read after MEMORY_OPS statements, or at the end of a window
        # too short to complete them.
        metrics["peak_rss_mb"] = recorder.peak_rss_mb or peak_rss_mb()
        detail["peak_rss_ops"] = min(recorder.attempted,
                                     workload.MEMORY_OPS)
    detail["errors"] = errors[:20]
    detail["error_count"] = len(errors)
    detail["failed_frac"] = recorder.failed / max(recorder.attempted, 1)
    units = PER_LAYER if trace else dict(END_TO_END)
    return {
        "correct": not errors,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
        "detail": detail,
    }


def _untraced(workload, seconds: float, detail: dict):
    recorder = Recorder(workload.MEMORY_OPS)
    workload.window(seconds, recorder)
    reads, writes = _summaries(workload, recorder)
    detail["read"] = reads
    detail["write"] = writes
    detail["write_p50_ms"] = writes["p50_ms"]
    detail["write_tail_ms"] = writes["tail_ms"]
    metrics = {"read_p50_ms": reads["p50_ms"],
               "read_tail_ms": reads["tail_ms"],
               "throughput_ops": recorder.completed / recorder.seconds}
    return recorder, metrics


def _traced(workload, seconds: float, detail: dict, trace_dir):
    """Alternate untraced and traced blocks (two of each, a quarter of
    the time apiece) so that drift of the host's speed during the run
    cancels out of the overhead estimate."""
    untraced, recorder = Recorder(), Recorder()
    tracer = tracing.LayerTracer()
    patcher = tracing.Patcher()
    delta: dict = {}
    for _ in range(2):
        workload.window(seconds / 4, untraced)
        before = workload.counters()
        tracing.install(tracer, patcher, workload.engines())
        try:
            workload.window(seconds / 4, recorder, tracer)
        finally:
            patcher.restore()
        for key, value in workload.counters().items():
            delta[key] = delta.get(key, 0) + value - before.get(key, 0)
    totals = tracer.totals()
    server = {}
    if delta.get("serve.requests"):
        in_server = delta["serve.in_server_s"] / delta["serve.requests"]
        service = totals["inclusive"].get("server.service", 0.0) / \
            max(totals["calls"].get("server.service", 0), 1)
        # Untraced, after the traced blocks: the open-loop ramp.
        ramp = workload.max_rate(seconds / 2)
        detail["ramp"] = ramp
        server = {"queue_wait_ms": max(in_server - service, 0.0) * 1e3,
                  "service_ms": service * 1e3,
                  "generator_lag_ms": ramp["steps"][0]["lag_p99_ms"],
                  "max_rate_rps": ramp["max_rate_rps"],
                  "peak_outstanding":
                      workload.server.stats.peak_outstanding}
    metrics = layer_metrics(totals, delta, recorder.completed, server)
    metrics["trace.overhead_pct"] = _overhead_pct(untraced, recorder)
    metrics["trace.spans"] = tracer.span_count()
    recorder.attempted += untraced.attempted
    recorder.failed += untraced.failed
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"trace-{workload.name}-seed{workload.seed}.json"
        tracer.write(path, {"workload": workload.name,
                            "seed": workload.seed})
        detail["trace_file"] = f"{trace_dir.name}/{path.name}"
    return recorder, metrics
