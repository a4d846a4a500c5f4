"""The four workloads and the loops that drive them.

A run measures with tracing off.  A traced run (``--trace 1``) splits
the same measuring time into alternating untraced and traced segments:
the probes are installed only for the traced ones, so the difference
between the two halves is the tracing overhead, and process CPU time is
taken from the untraced half.
"""

from __future__ import annotations

import contextlib
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable

import numpy as np

from perfbench import deploy, host, inputs, ledger
from perfbench.stats import Metric, Tally, median_metric, percentile, timing
from perfbench.trace import Probes, Recorder
from repro.service.protocol import AuthenticationResponse, DriftResponse
from repro.service.transport import ServiceClient

#: Distinct pre-generated frames a closed loop cycles through.
FRAMES = 6

#: Frames sent (answers checked, not timed) before measuring.
WARMUP_FRAMES = 2

#: Alternating (untraced, traced) segment pairs of a traced run.
TRACE_PAIRS = 3

#: Client socket timeout: a stuck request fails instead of hanging.
CLIENT_TIMEOUT_S = 20.0

# device_stream -------------------------------------------------------- #

#: Connections (and sender threads) of the open loop: nproc of the
#: 2-core reference host.
DEVICE_CONNECTIONS = 2

#: Offered load while latency is measured, requests per second.
BASE_RATE = 16.0

#: Share of the measuring time spent at the base rate (the rest measures
#: capacity and climbs the rate ladder).
BASE_SHARE = 0.5

#: Requests sent all at once to saturate both connections; their
#: completion rate is the capacity the ladder is anchored to.
SATURATION_REQUESTS = 64

#: Ladder rungs as fractions of the measured capacity.
LADDER_FRACTIONS = (0.6, 0.7, 0.8, 0.9, 1.0)

#: Highest rate the ladder offers.
MAX_RATE = 4000.0

#: A rung meets the limit when its p99 latency stays within this...
LATENCY_LIMIT_S = 0.2

#: ...no request fails, and the median wait for a free connection does
#: not grow by more than this from the rung's first third to its last.
BACKLOG_GROWTH_S = 0.1

#: Distinct pre-generated device requests (cycled).
DEVICE_POOL = 1500

# drift_mix ------------------------------------------------------------ #

#: Drifted users reported per cycle, before the cycle's fleet frame.
DRIFTS_PER_CYCLE = 4

#: Pre-generated drift cycles (a longer run wraps around).
DRIFT_CYCLES = 400


@dataclass
class Outcome:
    """What one run measured, before it becomes metrics."""

    setup_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    traced_latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    calls: int = 0
    windows: int = 0
    correct: int = 0
    tally: Tally = field(default_factory=Tally)
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    cpu_windows: int = 0
    max_rate: float | None = None
    rate_windows_per_s: float | None = None
    layers: dict[str, Metric] = field(default_factory=dict)
    recorder: Recorder | None = None
    #: Stack-cache lookups during traced segments.
    cache: dict[str, int] = field(default_factory=lambda: {"hits": 0, "misses": 0})
    #: Router and worker ``/metrics`` deltas during traced segments.
    cluster: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: ``(due, picked, start, end)`` of every open-loop request.
    arrivals: list[tuple[float, float, float, float]] = field(default_factory=list)

    def check_batch(self, batch: inputs.Batch, responses: Any, refs=None) -> int:
        """Count one batch's answers against the reference; windows decided."""
        refs = batch.refs if refs is None else refs
        n = len(batch.requests)
        if isinstance(responses, BaseException):
            self.tally.error(type(responses).__name__, n)
            return 0
        if len(responses) != n:
            self.tally.error("short-answer", n)
            return 0
        decided = 0
        for response, reference, genuine in zip(responses, refs, batch.genuine):
            decided += self.check_one(response, reference, bool(genuine))
        return decided

    def check_one(self, response: Any, reference: AuthenticationResponse, genuine: bool) -> int:
        if not isinstance(response, AuthenticationResponse):
            self.tally.error(type(response).__name__)
            return 0
        if not inputs.same_decision(response, reference):
            self.tally.mismatch()
            return 0
        self.tally.ok()
        windows = len(response.scores)
        self.windows += windows
        self.correct += inputs.correct_windows(response, genuine)
        return windows


def _call(send: Callable[[], Any]) -> tuple[Any, float, float]:
    started = perf_counter()
    try:
        answer = send()
    except Exception as error:  # every failure is counted, never retried
        answer = error
    return answer, started, perf_counter()


def segments(seconds: float, trace: bool) -> list[tuple[float, bool]]:
    """``(duration, traced)`` measuring segments of one run."""
    if not trace:
        return [(seconds, False)]
    share = seconds / (2 * TRACE_PAIRS)
    return [(share, traced) for _ in range(TRACE_PAIRS) for traced in (False, True)]


class Workload:
    """Shared run skeleton: set up, generate inputs, measure, check."""

    name = ""
    sharded = False
    solo = True

    def __init__(self, seed: int, seconds: float, trace: bool, work_dir: Path,
                 users: int = deploy.FLEET_USERS, repeats: int = deploy.SETUP_REPEATS):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.users = users
        self.repeats = repeats
        self.out = Outcome()
        if trace:
            self.out.recorder = Recorder(solo=self.solo)

    # -- to override --------------------------------------------------- #

    def prepare(self) -> None:
        """Generate inputs and reference answers (untimed)."""

    def step(self, traced: bool) -> None:
        """One closed-loop iteration."""
        raise NotImplementedError

    def measure(self) -> None:
        for duration, traced in segments(self.seconds, self.trace):
            self.segment(duration, traced, self.loop)

    def finish(self) -> None:
        """Checks that must wait until measuring is over."""

    # -- skeleton -------------------------------------------------------- #

    def client(self, codec: str) -> ServiceClient:
        return ServiceClient(
            port=self.deployment.port,
            api_key=self.deployment.api_key,
            codec=codec,
            timeout_s=CLIENT_TIMEOUT_S,
            max_retry_wait=0.0,
        )

    def loop(self, duration: float, traced: bool) -> None:
        deadline = perf_counter() + duration
        while perf_counter() < deadline:
            self.step(traced)

    def windows_sent(self) -> int:
        """Windows decided so far (CPU time is charged per window)."""
        return self.out.windows

    def segment(self, duration: float, traced: bool, body: Callable[[float, bool], None]) -> None:
        pids = self.deployment.worker_pids()
        windows, cpu = self.windows_sent(), host.cpu_seconds(pids)
        cache = self.deployment.simulator.frontend.stack_cache
        hits, misses = cache.hits, cache.misses
        probes = Probes(self.out.recorder) if traced else contextlib.nullcontext()
        with probes:
            body(duration, traced)
        if traced:
            self.out.cache["hits"] += cache.hits - hits
            self.out.cache["misses"] += cache.misses - misses
        else:
            self.out.cpu_s += host.cpu_seconds(pids) - cpu
            self.out.cpu_windows += self.windows_sent() - windows

    def record(self, started: float, ended: float, traced: bool) -> None:
        (self.out.traced_latencies if traced else self.out.latencies).append(ended - started)
        if not traced:
            self.out.busy_s += ended - started
            self.out.calls += 1

    def run(self) -> Outcome:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.deployment, self.twin, self.out.setup_s = deploy.set_up(
            self.sharded, self.seed, self.work_dir, users=self.users, repeats=self.repeats
        )
        try:
            self.prepare()
            self.measure()
            self.out.rss_mb = host.peak_rss_mb(self.deployment.worker_pids())
            self.finish()
        finally:
            self.deployment.close()
        if self.trace:
            self.out.layers = ledger.layer_metrics(self.out)
        return self.out


class FleetBatch(Workload):
    """Closed loop, one connection: every user's 8 windows in one binary frame."""

    name = "fleet_batch"

    def prepare(self) -> None:
        self.frames = inputs.fleet_frames(self.twin, self.seed, FRAMES)
        for frame in self.frames:
            frame.refs = self.twin.frontend.submit_many(frame.requests)
        self.binary = self.client("binary")
        self.sent = 0
        warmup = Outcome()
        for frame in self.frames[:WARMUP_FRAMES]:
            warmup.check_batch(frame, _call(lambda: self.binary.submit_many(frame.requests))[0])
        if warmup.tally.failed:
            raise RuntimeError(f"warm-up frames failed: {warmup.tally.kinds}")

    def step(self, traced: bool) -> None:
        frame = self.frames[self.sent % len(self.frames)]
        self.sent += 1
        answer, started, ended = _call(lambda: self.binary.submit_many(frame.requests))
        self.record(started, ended, traced)
        self.out.check_batch(frame, answer)


class ShardedBatch(FleetBatch):
    """The fleet_batch frames through the router over two shard workers."""

    name = "sharded_batch"
    sharded = True

    def segment(self, duration, traced, body) -> None:
        if not traced:
            super().segment(duration, traced, body)
            return
        before = self.scrape()
        super().segment(duration, traced, body)
        after = self.scrape()
        ledger.add_cluster_deltas(self.out, before, after)

    def scrape(self) -> dict[str, Any]:
        """Router and per-worker ``/metrics`` snapshots (untimed)."""
        ports = {"router": self.deployment.port}
        for shard in range(deploy.CLUSTER_WORKERS):
            ports[f"worker{shard}"] = self.deployment.pool.endpoint(shard)[1]
        snapshot = {}
        for name, port in ports.items():
            with ServiceClient(port=port, timeout_s=CLIENT_TIMEOUT_S) as client:
                snapshot[name] = client.metrics()
        return snapshot


class DriftMix(Workload):
    """Closed loop: drift reports for k users, then one fleet frame."""

    name = "drift_mix"

    def prepare(self) -> None:
        self.frames = inputs.fleet_frames(self.twin, self.seed, FRAMES)
        self.schedule = inputs.drift_schedule(
            self.twin, self.seed, DRIFT_CYCLES, DRIFTS_PER_CYCLE
        )
        self.binary = self.client("binary")
        self.json = self.client("json")
        # Warm-up frames change no model, so the twin needs no replay of
        # them; their answers are checked against the twin's.
        warmup = Outcome()
        for frame in self.frames[:WARMUP_FRAMES]:
            refs = self.twin.frontend.submit_many(frame.requests)
            answer = _call(lambda: self.binary.submit_many(frame.requests))[0]
            warmup.check_batch(frame, answer, refs)
        if warmup.tally.failed:
            raise RuntimeError(f"warm-up frames failed: {warmup.tally.kinds}")
        self.log: list[tuple[str, Any, Any]] = []
        self.cycle = 0
        self.sent_windows = 0

    def windows_sent(self) -> int:
        # Frame answers are checked after the twin's replay, so CPU time
        # is charged per window answered during the run.
        return self.sent_windows

    def step(self, traced: bool) -> None:
        reports = self.schedule[self.cycle % len(self.schedule)]
        frame = self.frames[self.cycle % len(self.frames)]
        self.cycle += 1
        for report in reports:
            answer, started, ended = _call(lambda: self.json.submit(report))
            self.record(started, ended, traced)
            self.log.append(("drift", report, answer))
        answer, started, ended = _call(lambda: self.binary.submit_many(frame.requests))
        if not traced:
            self.out.busy_s += ended - started
            self.out.calls += 1
        if isinstance(answer, list):
            self.sent_windows += frame.windows
        self.log.append(("frame", frame, answer))

    def finish(self) -> None:
        """Replay the drift sequence on the twin and check every answer."""
        frontend = self.twin.frontend
        for kind, item, answer in self.log:
            if kind == "drift":
                if isinstance(answer, BaseException) or not isinstance(answer, DriftResponse):
                    self.out.tally.error(type(answer).__name__)
                    continue
                reference = frontend.submit(item)
                if inputs.same_drift(answer, reference):
                    self.out.tally.ok()
                else:
                    self.out.tally.mismatch("drift-mismatch")
            else:
                self.out.check_batch(item, answer, frontend.submit_many(item.requests))


class DeviceStream(Workload):
    """Open loop, exponential arrival gaps, one v2 JSON request of 8 windows."""

    name = "device_stream"
    solo = False

    def prepare(self) -> None:
        self.pool = inputs.device_requests(self.twin, self.seed, DEVICE_POOL)
        self.pool.refs = self.twin.frontend.submit_many(self.pool.requests)
        self.clients = [self.client("json") for _ in range(DEVICE_CONNECTIONS)]
        self.cursor = 0
        # The order of every segment's arrival gaps, fixed before timing;
        # a rung whose rate follows the measured capacity uses a prefix.
        size = int(MAX_RATE * self.seconds) + 1
        self.keys = [
            inputs.input_rng(self.seed, f"arrivals-{index}").random(size)
            for index in range(2 * TRACE_PAIRS + len(LADDER_FRACTIONS) + 1)
        ]
        self.used_keys = 0
        warmup = Outcome()
        for index in range(10):
            client = self.clients[index % len(self.clients)]
            request = self.pool.requests[index]
            answer = _call(lambda: client.submit(request))[0]
            warmup.check_one(answer, self.pool.refs[index], bool(self.pool.genuine[index]))
        if warmup.tally.failed:
            raise RuntimeError(f"warm-up requests failed: {warmup.tally.kinds}")

    def offsets(self, rate: float, duration: float) -> np.ndarray:
        keys = self.keys[self.used_keys]
        self.used_keys += 1
        return inputs.arrival_offsets(keys, rate, duration)

    def open_loop(self, offsets: np.ndarray) -> list[tuple]:
        """Send each request at its due time over the free connection.

        Returns ``(due, picked, start, end, pool index, answer)`` per
        request; ``picked`` is when a sender became free to take it.
        """
        n = len(offsets)
        records: list[tuple | None] = [None] * n
        base = self.cursor
        self.cursor += n
        lock = threading.Lock()
        position = [0]
        t0 = perf_counter() + 0.01

        def sender(client: ServiceClient) -> None:
            while True:
                with lock:
                    index = position[0]
                    position[0] += 1
                if index >= n:
                    return
                picked = perf_counter()
                due = t0 + offsets[index]
                if due > picked:
                    sleep(due - picked)
                item = (base + index) % len(self.pool.requests)
                request = self.pool.requests[item]
                answer, started, ended = _call(lambda: client.submit(request))
                records[index] = (due, picked, started, ended, item, answer)

        threads = [threading.Thread(target=sender, args=(client,)) for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records  # type: ignore[return-value]

    def account(self, records: list[tuple]) -> int:
        """Check every answer; return how many failed."""
        failed_before = self.out.tally.failed
        for _, _, _, _, item, answer in records:
            self.out.check_one(answer, self.pool.refs[item], bool(self.pool.genuine[item]))
        return self.out.tally.failed - failed_before

    def base_segment(self, duration: float, traced: bool) -> None:
        records = self.open_loop(self.offsets(BASE_RATE, duration))
        self.base_failures = self.account(records)
        for due, picked, started, ended, _, _ in records:
            (self.out.traced_latencies if traced else self.out.latencies).append(ended - due)
            self.out.arrivals.append((due, picked, started, ended))
            if not traced:
                self.out.busy_s += ended - started
                self.out.calls += 1
        self.base_records = records

    def measure(self) -> None:
        if self.trace:
            for duration, traced in segments(self.seconds, True):
                self.segment(duration, traced, self.base_segment)
            return
        base_s = self.seconds * BASE_SHARE
        self.segment(base_s, False, self.base_segment)
        best: tuple[float, float] | None = None
        if self.rung_passes(self.base_records, self.base_failures):
            best = (BASE_RATE, self._windows_per_s(self.base_records))
        started = perf_counter()
        burst = self.open_loop(np.zeros(SATURATION_REQUESTS))
        self.account(burst)
        capacity = min(self._completion_rate(burst), MAX_RATE)
        rung_s = (self.seconds - base_s - (perf_counter() - started)) / len(LADDER_FRACTIONS)
        for fraction in LADDER_FRACTIONS:
            rate = capacity * fraction
            records = self.open_loop(self.offsets(rate, max(rung_s, 0.5)))
            failures = self.account(records)
            if self.rung_passes(records, failures) and (best is None or rate > best[0]):
                best = (rate, self._windows_per_s(records))
        # No rung meeting the limit, not even the base rate, reads as 0.
        self.out.max_rate, self.out.rate_windows_per_s = best or (0.0, 0.0)

    @staticmethod
    def _span(records: list[tuple]) -> float:
        """From the first due time to the last answer."""
        return max(record[3] for record in records) - min(record[0] for record in records)

    def _windows_per_s(self, records: list[tuple]) -> float:
        windows = sum(
            len(record[5].scores)
            for record in records
            if isinstance(record[5], AuthenticationResponse)
        )
        return windows / self._span(records)

    def _completion_rate(self, records: list[tuple]) -> float:
        return len(records) / self._span(records)

    @staticmethod
    def rung_passes(records: list[tuple], failures: int) -> bool:
        """p99 within the limit, no failure, no growing backlog."""
        if failures:
            return False
        latencies = [ended - due for due, _, _, ended, _, _ in records]
        if percentile(latencies, 99.0) > LATENCY_LIMIT_S:
            return False
        waits = [started - due for due, _, started, _, _, _ in records]
        third = len(waits) // 3
        if third:
            growth = np.median(waits[-third:]) - np.median(waits[:third])
            if growth > BACKLOG_GROWTH_S:
                return False
        return True


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetBatch, DeviceStream, DriftMix, ShardedBatch)
}


def diagnostics(out: Outcome) -> dict[str, Metric]:
    """Printed but not gated: p99 has fewer than ten samples beyond it at
    these run lengths, so its run-to-run spread is mostly sampling noise."""
    return {"latency_p99_ms": timing(out.latencies, 99.0)} if out.latencies else {}


def end_to_end(out: Outcome) -> dict[str, Metric]:
    """The end-to-end metrics of an untraced run."""
    latencies = out.latencies
    requests_per_s = out.calls / out.busy_s if out.busy_s else 0.0
    max_rate = out.max_rate if out.max_rate is not None else requests_per_s
    if out.rate_windows_per_s is not None:
        windows_per_s = Metric(out.rate_windows_per_s, "windows/s", 1, "rung")
    else:
        windows_per_s = Metric(out.windows / out.busy_s if out.busy_s else 0.0,
                               "windows/s", out.calls, "total/busy")
    return {
        "setup_s": median_metric(out.setup_s, "s"),
        "windows_per_s": windows_per_s,
        "latency_p50_ms": timing(latencies, 50.0),
        "latency_p90_ms": timing(latencies, 90.0),
        "max_rate_rps": Metric(max_rate, "1/s", out.calls, "rate"),
        "ok_fraction": Metric(out.tally.ok_fraction, "fraction", out.tally.attempted, "ratio"),
        "accuracy": Metric(out.correct / out.windows if out.windows else 0.0,
                           "fraction", out.windows, "ratio"),
        "rss_mb": Metric(out.rss_mb, "MiB", 1, "peak"),
    }
