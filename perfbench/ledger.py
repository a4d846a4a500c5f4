"""The per-layer ledger: stage times, ratios and counts from a traced run.

Stage times are per request: a request's total time in every span of
that name (``gateway.scorer_for`` sums the 500 lookups of one frame),
then the median over the requests that entered the stage.  Per-shard
exchanges run in parallel, so ``cluster.worker_exchange`` is the median
of single exchanges instead.  A layer that does not run on a workload
reports 0 from 0 samples.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import numpy as np

from perfbench.stats import (
    Metric,
    median_metric,
    percentile,
    self_times,
    unattributed_fraction,
)
from perfbench.trace import CLIENT_CALL

#: Span names reported as ``<name>_ms`` (per-request time in the stage).
STAGES = (
    "transport.client_call",
    "transport.dispatch_frame",
    "wirebin.encode_request",
    "wirebin.parse_request",
    "wirebin.encode_response",
    "wirebin.parse_response",
    "wirebin.to_responses",
    "envelope.authorize_frame",
    "envelope.process",
    "frontend.submit_columns",
    "frontend.submit_many",
    "frontend.queue_wait",
    "gateway.detect_context_codes",
    "gateway.scorer_for",
    "gateway.report_drift",
    "gateway.train",
    "scoring.score_stacked",
    "scoring.stacks_for",
    "registry.publish",
    "ml.krr_fit",
    "store.append",
    "cluster.split",
    "cluster.route_frame",
    "cluster.worker_exchange",
)

#: Stages timed per call rather than summed per request (they overlap).
PER_CALL = ("cluster.worker_exchange",)

#: Client-side encode and decode, and the server's dispatch, per path.
CLIENT_ENCODE = ("wirebin.encode_request", "transport.client_encode")
CLIENT_DECODE = ("wirebin.parse_response", "wirebin.to_responses", "transport.client_decode")
SERVER_DISPATCH = ("transport.dispatch_frame", "envelope.process", "cluster.route_frame")

#: A request whose wire time reaches this counts as stalled (the
#: delayed-ACK stall is ~40 ms; healthy loopback wire time is ~1 ms).
STALL_S = 0.030

#: Worker-side latency recorders read from each worker's ``/metrics``.
WORKER_RECORDERS = {"request": "transport.request", "authenticate": "frontend.authenticate"}

#: Shard workers whose ``/metrics`` deltas are reported.
WORKERS = 2

#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    **{f"{stage}_ms": "ms" for stage in STAGES},
    "transport.wire_ms": "ms",
    "transport.stalled_share": "fraction",
    "transport.request_bytes": "bytes",
    "transport.response_bytes": "bytes",
    "frontend.requests_per_flush": "count",
    "scoring.stack_cache_hit_ratio": "fraction",
    "scoring.stack_cache_lookups": "count",
    "cluster.merge_ms": "ms",
    "cluster.exchange_skew": "ratio",
    "cluster.retries": "count",
    "cluster.hedges": "count",
    **{
        f"cluster.worker{shard}_{label}_ms": "ms"
        for shard in range(WORKERS)
        for label in WORKER_RECORDERS
    },
    "process.cpu_ms_per_window": "ms",
    "generator.lag_p99_ms": "ms",
    "generator.in_flight_max": "count",
    "ledger.unattributed_fraction": "fraction",
    "ledger.trace_overhead_fraction": "fraction",
}


def _requests(spans) -> tuple[dict[int, Any], dict[int, list]]:
    roots: dict[int, Any] = {}
    members: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.rid is None:
            continue
        if span.name == CLIENT_CALL and span.parent is None:
            roots[span.rid] = span
        else:
            members[span.rid].append(span)
    return roots, members


def _stage_times(roots, members) -> dict[str, list[float]]:
    times: dict[str, list[float]] = defaultdict(list)
    for rid, root in roots.items():
        totals: dict[str, float] = defaultdict(float)
        totals[CLIENT_CALL] = root.end - root.start
        for span in members.get(rid, ()):
            if span.name in PER_CALL:
                times[span.name].append(span.end - span.start)
            else:
                totals[span.name] += span.end - span.start
        for name, total in totals.items():
            times[name].append(total)
    return times


def _wire_times(roots, members) -> list[float]:
    """Client call minus client encode, client decode and server dispatch."""
    wires = []
    for rid, root in roots.items():
        spans = members.get(rid, ())
        dispatch = [span for span in spans if span.name in SERVER_DISPATCH]
        if not dispatch:
            continue
        inner = sum(
            span.end - span.start
            for span in spans
            if span.name in CLIENT_ENCODE or span.name in CLIENT_DECODE
        )
        inner += sum(span.end - span.start for span in dispatch)
        wires.append((root.end - root.start) - inner)
    return wires


def _cluster(roots, members) -> dict[str, Metric]:
    merges, skews = [], []
    for rid in roots:
        spans = members.get(rid, ())
        route = [span for span in spans if span.name == "cluster.route_frame"]
        if len(route) != 1:
            continue
        inside = [span for span in spans if route[0].start <= span.start <= route[0].end]
        split = sum(span.end - span.start for span in inside if span.name == "cluster.split")
        exchanges = [
            span.end - span.start for span in inside if span.name == "cluster.worker_exchange"
        ]
        if not exchanges:
            continue
        merges.append((route[0].end - route[0].start) - split - max(exchanges))
        skews.append(max(exchanges) / min(exchanges))
    return {
        "cluster.merge_ms": median_metric(merges, "ms", 1e3),
        "cluster.exchange_skew": median_metric(skews, "ratio"),
    }


def _generator(arrivals: list[tuple[float, float, float, float]]) -> dict[str, Metric]:
    """Open-loop validity: sender lateness and requests due but unanswered.

    Lateness is how long after both its due time and a sender becoming
    free a request actually went out (oversleep, interpreter contention);
    waiting for a busy connection is the system's queueing, not the
    generator's, and is part of the latency measured from the due time.
    """
    if not arrivals:
        return {
            "generator.lag_p99_ms": Metric(0.0, "ms", 0, "p99"),
            "generator.in_flight_max": Metric(0.0, "count", 0, "max"),
        }
    lags = [started - max(due, picked) for due, picked, started, _ in arrivals]
    events = sorted(
        [(due, 1) for due, _, _, _ in arrivals] + [(ended, -1) for _, _, _, ended in arrivals]
    )
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return {
        "generator.lag_p99_ms": Metric(percentile(lags, 99.0) * 1e3, "ms", len(lags), "p99"),
        "generator.in_flight_max": Metric(float(peak), "count", len(arrivals), "max"),
    }


def add_cluster_deltas(out, before: dict[str, Any], after: dict[str, Any]) -> None:
    """Fold ``/metrics`` differences of one traced segment into *out*."""
    sums = out.cluster
    router_before = before["router"]["counters"]
    router_after = after["router"]["counters"]
    for counter in ("router.retries", "router.hedges"):
        sums[counter] += router_after.get(counter, 0) - router_before.get(counter, 0)
    for shard in range(WORKERS):
        old, new = before[f"worker{shard}"], after[f"worker{shard}"]
        for label, recorder in WORKER_RECORDERS.items():
            was = old["latencies"].get(recorder, {"count": 0, "total_s": 0.0})
            now = new["latencies"].get(recorder, {"count": 0, "total_s": 0.0})
            sums[f"worker{shard}.{label}.count"] += now["count"] - was["count"]
            sums[f"worker{shard}.{label}.total_s"] += now["total_s"] - was["total_s"]
        for outcome in ("hits", "misses"):
            counter = f"frontend.stack_cache.{outcome}"
            out.cache[outcome] += new["counters"].get(counter, 0) - old["counters"].get(counter, 0)


def layer_metrics(out) -> dict[str, Metric]:
    """Every per-layer metric of a traced run (see :data:`PER_LAYER`)."""
    roots, members = _requests(out.recorder.spans)
    times = _stage_times(roots, members)
    metrics: dict[str, Metric] = {
        f"{stage}_ms": median_metric(times.get(stage, []), "ms", 1e3) for stage in STAGES
    }

    wires = _wire_times(roots, members)
    metrics["transport.wire_ms"] = median_metric(wires, "ms", 1e3)
    stalled = sum(1 for wire in wires if wire >= STALL_S)
    metrics["transport.stalled_share"] = Metric(
        stalled / len(wires) if wires else 0.0, "fraction", len(wires), "ratio"
    )
    metrics["transport.request_bytes"] = median_metric(
        list(out.recorder.request_bytes.values()), "bytes"
    )
    metrics["transport.response_bytes"] = median_metric(
        list(out.recorder.response_bytes.values()), "bytes"
    )
    metrics["frontend.requests_per_flush"] = median_metric(out.recorder.flush_sizes, "count")

    lookups = out.cache["hits"] + out.cache["misses"]
    metrics["scoring.stack_cache_hit_ratio"] = Metric(
        out.cache["hits"] / lookups if lookups else 0.0, "fraction", lookups, "ratio"
    )
    metrics["scoring.stack_cache_lookups"] = Metric(float(lookups), "count", lookups, "count")

    metrics.update(_cluster(roots, members))
    for counter in ("retries", "hedges"):
        value = out.cluster[f"router.{counter}"]
        metrics[f"cluster.{counter}"] = Metric(float(value), "count", 1, "delta")
    for shard in range(WORKERS):
        for label in WORKER_RECORDERS:
            count = out.cluster[f"worker{shard}.{label}.count"]
            total = out.cluster[f"worker{shard}.{label}.total_s"]
            metrics[f"cluster.worker{shard}_{label}_ms"] = Metric(
                total / count * 1e3 if count else 0.0, "ms", int(count), "mean"
            )

    metrics["process.cpu_ms_per_window"] = Metric(
        out.cpu_s * 1e3 / out.cpu_windows if out.cpu_windows else 0.0,
        "ms",
        out.cpu_windows,
        "total/windows",
    )
    metrics.update(_generator(out.arrivals))

    unattributed = [
        unattributed_fraction(root, members.get(rid, ())) for rid, root in roots.items()
    ]
    metrics["ledger.unattributed_fraction"] = median_metric(unattributed, "fraction")
    if out.latencies and out.traced_latencies:
        overhead = float(np.median(out.traced_latencies) / np.median(out.latencies) - 1.0)
        samples = min(len(out.latencies), len(out.traced_latencies))
    else:
        overhead, samples = 0.0, 0
    metrics["ledger.trace_overhead_fraction"] = Metric(
        overhead, "fraction", samples, "median ratio"
    )
    return {name: metrics[name] for name in PER_LAYER}


def stage_table(out) -> list[str]:
    """Human-readable ledger: per stage, median time and median self time."""
    roots, members = _requests(out.recorder.spans)
    spans = [span for rid in roots for span in [roots[rid], *members.get(rid, ())]]
    own = self_times(spans)
    per_stage: dict[str, list[float]] = defaultdict(list)
    per_stage_self: dict[str, list[float]] = defaultdict(list)
    for rid, root in roots.items():
        total: dict[str, float] = defaultdict(float)
        total_self: dict[str, float] = defaultdict(float)
        for span in [root, *members.get(rid, ())]:
            total[span.name] += span.end - span.start
            total_self[span.name] += own[span.sid]
        for name in total:
            per_stage[name].append(total[name])
            per_stage_self[name].append(total_self[name])
    lines = []
    for name in sorted(per_stage, key=lambda n: -float(np.median(per_stage_self[n]))):
        lines.append(
            f"  {name:34s} {np.median(per_stage[name]) * 1e3:9.3f} ms"
            f"  self {np.median(per_stage_self[name]) * 1e3:9.3f} ms"
            f"  ({len(per_stage[name])} requests)"
        )
    return lines
