"""In-memory spans recorded around calls into each serving layer.

The benchmark never edits the program: a traced run swaps each probed
function for a wrapper at the place callers resolve it at call time —
a class attribute for methods, the importing module's namespace for
functions bound with ``from ... import`` — and swaps the original back
afterwards.  Untraced runs install nothing.

A span carries its name, start, end, parent span and request id.  Spans
on one thread nest through a thread-local stack.  Work that hops threads
is linked back to its request in one of two ways:

* by key — the client's envelope ``request_id`` (the JSON path) and the
  identity of a request object crossing the micro-batch queue;
* in *solo* mode (closed-loop workloads, exactly one request in flight)
  a span opened on a thread with nothing on its stack attaches to the
  innermost open *anchor* span: the client call, or the router's
  ``route_frame`` while it fans out per-shard exchanges.
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core import scoring
from repro.devices.store import FeatureStore
from repro.ml.kernel_ridge import KernelRidgeClassifier
from repro.service import cluster, frontend, transport, wirebin
from repro.service.envelope import EnvelopeProcessor
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import DriftReport
from repro.service.registry import ModelRegistry

#: Root span of every request: one client call.
CLIENT_CALL = "transport.client_call"


class Span:
    """One timed call (``end`` is 0 while it is still open)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "anchor")

    def __init__(self, sid, name, start, parent, rid, anchor=False, end=0.0):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.anchor = anchor

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.rid,
        }


class Recorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self, solo: bool) -> None:
        self.solo = solo
        self.spans: list[Span] = []
        self.flush_sizes: list[int] = []
        self.request_bytes: dict[int, int] = {}
        self.response_bytes: dict[int, int] = {}
        self._sids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._links: dict[Any, Span] = {}
        self._anchors: list[Span] = []
        self._queued: dict[int, float] = {}
        self._lock = threading.Lock()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: Any = None, root: bool = False, anchor: bool = False) -> Span:
        stack = self.stack()
        if root:
            parent, rid = None, next(self._rids)
        elif stack:
            parent, rid = stack[-1], stack[-1].rid
        else:
            parent = self._links.get(key) if key is not None else None
            if parent is None and self.solo:
                with self._lock:
                    parent = self._anchors[-1] if self._anchors else None
            rid = parent.rid if parent is not None else None
        anchor = anchor or (root and self.solo)
        span = Span(
            next(self._sids),
            name,
            perf_counter(),
            parent.sid if parent is not None else None,
            rid,
            anchor,
        )
        stack.append(span)
        if anchor:
            with self._lock:
                self._anchors.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.anchor:
            with self._lock:
                self._anchors.remove(span)
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent: Span) -> None:
        """Record a span whose interval was measured elsewhere."""
        self.spans.append(
            Span(next(self._sids), name, start, parent.sid, parent.rid, end=end)
        )

    def link(self, key: Any, span: Span) -> None:
        self._links[key] = span

    def thread_root(self) -> Span | None:
        stack = self.stack()
        return stack[0] if stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for span in self.spans:
                sink.write(json.dumps(span.to_json()) + "\n")


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #


def _wrap(
    recorder: Recorder,
    original: Callable,
    name: str | Callable[[tuple], str],
    key: Callable[[tuple], Any] | None = None,
    root: bool = False,
    anchor: bool = False,
    on_enter: Callable | None = None,
    on_exit: Callable | None = None,
) -> Callable:
    def wrapper(*args, **kwargs):
        span = recorder.open(
            name(args) if callable(name) else name,
            key=key(args) if key is not None else None,
            root=root,
            anchor=anchor,
        )
        if on_enter is not None:
            on_enter(recorder, span, args)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if on_exit is not None:
            on_exit(recorder, span, args, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", "wrapper")
    return wrapper


def _hook(original: Callable, before: Callable) -> Callable:
    """Call *before(args)* and then *original*, recording no span."""

    def wrapper(*args, **kwargs):
        before(args)
        return original(*args, **kwargs)

    wrapper.__wrapped__ = original
    return wrapper


def _record_request_bytes(recorder, span, args, result) -> None:
    recorder.request_bytes[span.rid] = len(result)


def _link_envelope(recorder, span, args, result) -> None:
    root = recorder.thread_root()
    if root is not None:
        recorder.link(("envelope", args[0].request_id), root)
    recorder.request_bytes[span.rid] = len(result)


def _record_response_bytes(recorder, span, args, result) -> None:
    recorder.response_bytes[span.rid] = len(args[0])


def _decode_name(recorder: Recorder) -> Callable[[tuple], str]:
    def name(args) -> str:
        stack = recorder.stack()
        if stack and stack[-1].name == CLIENT_CALL:
            return "wirebin.parse_response"
        return "cluster.decode_subframe"

    return name


def _decode_exit(recorder, span, args, result) -> None:
    if span.name == "wirebin.parse_response":
        recorder.response_bytes[span.rid] = len(args[0])


def _enqueue_hook(recorder: Recorder) -> Callable[[tuple], None]:
    def before(args) -> None:
        stack = recorder.stack()
        if stack:
            request = args[1]
            recorder.link(("queued", id(request)), stack[-1])
            recorder._queued[id(request)] = perf_counter()

    return before


def _flush_key(args) -> Any:
    requests = args[1]
    return ("queued", id(requests[0])) if len(requests) else None


def _flush_enter(recorder: Recorder, span: Span, args) -> None:
    """A queue flush: record each request's wait and the flush size."""
    queued = 0
    for request in args[1]:
        enqueued = recorder._queued.pop(id(request), None)
        parent = recorder._links.get(("queued", id(request)))
        if enqueued is None or parent is None:
            continue
        queued += 1
        recorder.add("frontend.queue_wait", enqueued, span.start, parent)
    if queued:
        recorder.flush_sizes.append(queued)


def _flush_exit(recorder, span, args, result) -> None:
    """Give every other request of a coalesced flush its own copy."""
    for request in args[1]:
        parent = recorder._links.pop(("queued", id(request)), None)
        if parent is not None and parent.rid != span.rid:
            recorder.add(span.name, span.start, span.end, parent)


def _gateway_name(args) -> str:
    return "gateway.report_drift" if isinstance(args[1], DriftReport) else "gateway.handle"


def probe_table(recorder: Recorder) -> list[tuple[Any, str, Callable[[Callable], Callable]]]:
    """``(owner, attribute, make_wrapper)`` for every probed call site."""

    def span(name, **options):
        return lambda original: _wrap(recorder, original, name, **options)

    return [
        # client
        (transport.ServiceClient, "submit", span(CLIENT_CALL, root=True)),
        (transport.ServiceClient, "submit_many", span(CLIENT_CALL, root=True)),
        (
            transport,
            "dumps_envelope",
            span("transport.client_encode", on_exit=_link_envelope),
        ),
        (
            transport,
            "loads_sealed",
            span("transport.client_decode", on_exit=_record_response_bytes),
        ),
        (
            wirebin,
            "encode_request_frame",
            span("wirebin.encode_request", on_exit=_record_request_bytes),
        ),
        (
            wirebin,
            "decode_response_frames",
            span(_decode_name(recorder), on_exit=_decode_exit),
        ),
        (wirebin.ResponseFrame, "to_responses", span("wirebin.to_responses")),
        # server: transport, wire codec, envelope
        (wirebin, "parse_request_frame", span("wirebin.parse_request")),
        (transport.ServiceHTTPServer, "dispatch_frame", span("transport.dispatch_frame")),
        (wirebin, "encode_columnar_response", span("wirebin.encode_response")),
        (
            transport,
            "envelope_from_payload",
            span("transport.server_decode", key=lambda a: ("envelope", a[0].get("request_id"))),
        ),
        (
            transport,
            "dumps_sealed",
            span("transport.server_encode", key=lambda a: ("envelope", a[0].request_id)),
        ),
        (
            EnvelopeProcessor,
            "process",
            span("envelope.process", key=lambda a: ("envelope", a[1].request_id)),
        ),
        (EnvelopeProcessor, "authorize_frame", span("envelope.authorize_frame")),
        # frontend + queue
        (MicroBatchQueue, "submit", lambda original: _hook(original, _enqueue_hook(recorder))),
        (
            ServiceFrontend,
            "submit_many",
            span(
                "frontend.submit_many",
                key=_flush_key,
                on_enter=_flush_enter,
                on_exit=_flush_exit,
            ),
        ),
        (ServiceFrontend, "submit_columns", span("frontend.submit_columns")),
        # gateway
        (AuthenticationGateway, "detect_context_codes", span("gateway.detect_context_codes")),
        (AuthenticationGateway, "scorer_for", span("gateway.scorer_for")),
        (AuthenticationGateway, "handle", span(_gateway_name)),
        (AuthenticationGateway, "train", span("gateway.train")),
        # scoring (bound by name in the frontend, and called inside scoring)
        (frontend, "score_stacked", span("scoring.score_stacked")),
        (frontend, "score_requests", span("scoring.score_requests")),
        (scoring, "score_stacked", span("scoring.score_stacked")),
        (scoring.FusedStackCache, "stacks_for", span("scoring.stacks_for")),
        # write path
        (ModelRegistry, "publish", span("registry.publish")),
        (KernelRidgeClassifier, "fit", span("ml.krr_fit")),
        (FeatureStore, "append", span("store.append")),
        # cluster (router side; workers are separate processes)
        (cluster.ShardRouter, "route_frame", span("cluster.route_frame", anchor=True)),
        (cluster.HashRing, "split", span("cluster.split")),
        (cluster.ShardRouter, "reliable_exchange", span("cluster.worker_exchange")),
    ]


class Probes:
    """Installs every wrapper on entry and restores the originals on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def __enter__(self) -> "Probes":
        for owner, attribute, make in probe_table(self.recorder):
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, own, vars(owner).get(attribute)))
            setattr(owner, attribute, make(original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, own, original in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()
