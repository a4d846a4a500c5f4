"""Micro-batching service frontend: the typed front door of the fleet API.

The :class:`ServiceFrontend` accepts :mod:`repro.service.protocol` requests
and wraps every dispatch in middleware:

* **validation** — only protocol request types are routed;
* **telemetry** — per-kind latency timers and request/error counters;
* **error mapping** — exceptions become typed
  :class:`~repro.service.protocol.ErrorResponse`\\ s instead of propagating,
  so one bad request in a batch never poisons its neighbours;
* **per-user serialization** — requests touching the same user are applied
  under that user's lock stripe, keeping read-modify-write operations
  (enroll, drift retrain) safe under concurrent submission.

Its distinguishing feature is **micro-batching**: consecutive
:class:`~repro.service.protocol.AuthenticateRequest`\\ s in one
:meth:`ServiceFrontend.submit_many` call are *coalesced* into a single
vectorized :func:`~repro.core.scoring.score_requests` pass — one fused
projection over the whole fleet batch for affine models (the paper's
kernel-ridge configuration), instead of one scoring call per request — and
the responses are fanned back out in request order.  Windows whose requests
carry no device-reported contexts are labelled inside the same batched pass
by the registry-published context detector.

The columnar door resolves its frames through a :class:`ServingTable`:
every served user's row in one :class:`~repro.core.scoring.ModelTable`,
built once per ``(registry generation, use_context)`` and reused by every
frame until a publish, rollback or detector publish moves the generation.
A warm frame therefore resolves 500 users with one dict lookup each and
array gathers, never a per-user scorer lookup.  Both doors reuse the
stacked model parameters across flushes through a
:class:`~repro.core.scoring.FusedStackCache` keyed by the fused model set,
cleared whenever the generation moves.

:class:`MicroBatchQueue` adds the asynchronous variant: concurrent callers
enqueue single requests and receive futures, while a background worker
drains the queue into coalesced ``submit_many`` batches.  Its admission
control bounds the pending-request depth, rejecting (with a typed
:class:`~repro.service.protocol.ThrottledResponse`) or blocking — the
``overflow`` policy — once the bound is hit, and records every request's
time-in-queue.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, repeat
from time import monotonic, perf_counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.scoring import (
    CONTEXT_CODES,
    FusedStackCache,
    ModelTable,
    offsets_from_lengths,
    score_requests,
    score_stacked,
)
from repro.service.gateway import AuthenticationGateway, PlaneMismatchError
from repro.service.protocol import (
    AuthenticateColumns,
    AuthenticateRequest,
    AuthenticationResponse,
    ColumnarAuthResult,
    ErrorResponse,
    Request,
    Response,
    ThrottledResponse,
    is_control_plane,
    is_data_plane,
    request_kind,
)
from repro.service.telemetry import TelemetryHub
from repro.service.tracing import SPAN_FUSED_PASS, SPAN_QUEUE_WAIT

#: Lock stripes per frontend.  A user always maps to the same stripe, so
#: requests touching one user stay serialized, while the lock table stays
#: this size however many user ids (attacker-chosen ones included) arrive.
LOCK_STRIPES = 64


def lock_stripe(user_id: str) -> int:
    """The index of the lock stripe serializing *user_id*'s requests."""
    return hash(user_id) % LOCK_STRIPES


@dataclass(frozen=True, eq=False)
class ServingTable:
    """Every served user's model resolution at one registry generation.

    Immutable: a registry change never edits a table, it makes the next
    flush build a new one.  ``eq=False`` for the usual array-field reason.

    Attributes
    ----------
    generation, use_context:
        The registry generation and scoring mode the table was built for.
    resolver:
        The ``scorer_for`` function the table's rows were resolved through.
    row_by_user:
        Each served user's row in :attr:`models`.
    models:
        One row per served user: the newest active bundle's model slots.
    """

    generation: int
    use_context: bool
    resolver: object
    row_by_user: dict[str, int]
    models: ModelTable


class ServiceFrontend:
    """Validates, routes and micro-batches protocol requests to a gateway.

    Parameters
    ----------
    gateway:
        Optional pre-configured backend gateway (a fresh one is created
        when omitted).
    telemetry:
        Optional telemetry hub for frontend metrics; defaults to the
        gateway's hub so frontend and backend metrics land in one snapshot.
    stack_cache:
        Optional :class:`~repro.core.scoring.FusedStackCache` reused across
        coalesced flushes (a fresh one is created when omitted).  The cache
        is cleared automatically whenever the gateway registry's
        :attr:`~repro.service.registry.ModelRegistry.generation` moves
        (publish, rollback, detector publish), so stale stacks never
        accumulate after a retrain.
    """

    def __init__(
        self,
        gateway: AuthenticationGateway | None = None,
        telemetry: TelemetryHub | None = None,
        stack_cache: FusedStackCache | None = None,
    ) -> None:
        self.gateway = gateway if gateway is not None else AuthenticationGateway()
        self.telemetry = telemetry if telemetry is not None else self.gateway.telemetry
        self.stack_cache = stack_cache if stack_cache is not None else FusedStackCache()
        self._stack_generation = self.gateway.registry.generation
        # Built by the first columnar flush after the generation moves,
        # never during enrollment.
        self._table: ServingTable | None = None
        # Set by the transport / fleet when request tracing is enabled;
        # ``None`` keeps the scoring hot path byte-identical to untraced.
        self.tracer = None
        # Monotonic flush ids tag which coalesced pass served each traced
        # request (batch-membership attribution across concurrent flushes).
        self._flush_ids = count(1)
        self._stripes = tuple(threading.Lock() for _ in range(LOCK_STRIPES))

    # ------------------------------------------------------------------ #
    # middleware plumbing
    # ------------------------------------------------------------------ #

    @contextmanager
    def _locked(self, user_ids: Iterable[str]) -> Iterator[None]:
        """Hold the lock stripes of *user_ids* (each once, in stripe order).

        Every multi-stripe holder acquires in ascending stripe order, so two
        flushes sharing stripes can never deadlock.
        """
        locks = [self._stripes[index] for index in sorted(set(map(lock_stripe, user_ids)))]
        for lock in locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(locks):
                lock.release()

    def _serving_table(self) -> ServingTable:
        """The serving table of the current generation, built on first use.

        The generation is read before any version, so a publish racing the
        build leaves the table tagged with the older generation and the
        next flush rebuilds.  Two flushes racing to build both produce a
        valid table; the last one stored wins.

        The table memoizes ``gateway.scorer_for``, so it is also keyed by
        that function: replacing it on the gateway or its class (a test
        double, an instrumentation wrapper) rebuilds the table through the
        replacement instead of serving what the old one resolved.
        """
        gateway = self.gateway
        generation = gateway.registry.generation
        resolve = gateway.scorer_for
        resolver = getattr(resolve, "__func__", resolve)
        table = self._table
        if (
            table is not None
            and table.generation == generation
            and table.use_context == gateway.use_context
            and table.resolver is resolver
        ):
            return table
        use_context = gateway.use_context
        users: list[str] = []
        scorers = []
        for user_id in gateway.registry.users():
            try:
                scorer = resolve(user_id)
            except Exception:
                # Left out of the table: its requests resolve through
                # scorer_for one by one, which answers the typed error.
                continue
            users.append(user_id)
            scorers.append(scorer)
        table = ServingTable(
            generation=generation,
            use_context=use_context,
            resolver=resolver,
            row_by_user={user_id: row for row, user_id in enumerate(users)},
            # Every served bundle was trained on the feature store's one
            # schema, so any bundle's feature names give the fused width.
            models=ModelTable.build(
                scorers, width=len(scorers[0].bundle.feature_names) if scorers else 0
            ),
        )
        self._table = table
        return table

    def _refresh_stack_cache(self) -> None:
        """Drop cached fused stacks once the registry's generation moved.

        A registry change (publish / rollback / detector publish) may have
        retired some served models; clearing keeps the cache holding only
        model sets that can still be served.
        """
        generation = self.gateway.registry.generation
        if generation != self._stack_generation:
            self.stack_cache.clear()
            self._stack_generation = generation

    def _error(self, kind: str, error: Exception, user_id: str | None) -> ErrorResponse:
        self.telemetry.increment("frontend.errors")
        return ErrorResponse(
            request_kind=kind,
            error=type(error).__name__,
            message=str(error),
            user_id=user_id,
        )

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> Response:
        """Dispatch one protocol request through the full middleware stack.

        Returns
        -------
        Response
            The request's typed response; backend failures come back as
            :class:`~repro.service.protocol.ErrorResponse`, they do not
            raise.

        Raises
        ------
        TypeError
            If *request* is not a protocol request.
        """
        return self.submit_many([request])[0]

    def submit_control(self, request: Request) -> Response:
        """Dispatch one control-plane request through the middleware stack.

        The admin door: same telemetry / error-mapping / per-user-lock
        middleware as :meth:`submit`, but restricted to the control plane's
        typed request set — the v2 admin endpoint dispatches through here,
        so a data-plane operation can never ride in on it.

        Raises
        ------
        PlaneMismatchError
            If *request* is a data-plane operation.
        TypeError
            If *request* is not a protocol request.
        """
        if not is_control_plane(request):
            request_kind(request)  # raises TypeError on non-protocol input
            raise PlaneMismatchError(request, plane="control", expected="data")
        return self._submit_one(request)

    def submit_many(self, requests: Sequence[Request]) -> list[Response]:
        """Dispatch a batch of requests, coalescing authenticate runs.

        Requests are applied in order; every maximal run of consecutive
        :class:`AuthenticateRequest`\\ s is scored in one coalesced
        vectorized pass.  Each request independently maps to its response
        (or :class:`ErrorResponse`), in the same order as submitted.

        Raises
        ------
        TypeError
            If any entry is not a protocol request (checked up front, so a
            bad entry never fails its neighbours mid-batch).
        """
        for request in requests:
            request_kind(request)  # raises TypeError on non-protocol input
        responses: list[Response | None] = [None] * len(requests)
        index = 0
        while index < len(requests):
            if isinstance(requests[index], AuthenticateRequest):
                end = index
                while end < len(requests) and isinstance(
                    requests[end], AuthenticateRequest
                ):
                    end += 1
                responses[index:end] = self._authenticate_coalesced(
                    requests[index:end]  # type: ignore[arg-type]
                )
                index = end
            else:
                responses[index] = self._submit_one(requests[index])
                index += 1
        return responses  # type: ignore[return-value]

    def _submit_one(self, request: Request) -> Response:
        kind = request_kind(request)
        user_id = getattr(request, "user_id", None)
        self.telemetry.increment("frontend.requests")
        with self.telemetry.timer(f"frontend.{kind}"):
            try:
                if user_id is not None:
                    with self._locked((user_id,)):
                        return self.gateway.handle(request)
                return self.gateway.handle(request)
            except Exception as error:
                return self._error(kind, error, user_id)

    # ------------------------------------------------------------------ #
    # the columnar (zero-copy) authenticate pass
    # ------------------------------------------------------------------ #

    def submit_columns(self, columns: AuthenticateColumns) -> ColumnarAuthResult:
        """Dispatch a columnar authenticate batch through the middleware stack.

        The zero-copy twin of submitting a run of
        :class:`~repro.service.protocol.AuthenticateRequest`\\ s through
        :meth:`submit_many`: same telemetry, same per-user locks, same
        error isolation (a request that cannot be served answers a typed
        :class:`~repro.service.protocol.ErrorResponse` in the result's
        sparse error map without costing its neighbours) — but the feature
        block travels straight from the wire decode into the fused scoring
        pass (:func:`~repro.core.scoring.score_stacked`) with no
        per-request protocol objects anywhere.  Decisions are bit-for-bit
        identical to the per-request path.

        Raises
        ------
        TypeError
            If *columns* is not an
            :class:`~repro.service.protocol.AuthenticateColumns`.
        """
        if not isinstance(columns, AuthenticateColumns):
            raise TypeError(
                f"submit_columns expects AuthenticateColumns, got "
                f"{type(columns).__name__}"
            )
        self.telemetry.increment("frontend.requests", columns.n_requests)
        with self.telemetry.timer("frontend.authenticate"):
            with self._locked(columns.user_ids):
                return self._score_columns(columns)

    def _score_columns(self, columns: AuthenticateColumns) -> ColumnarAuthResult:
        # The columnar batch was rebuilt from wire bytes, so its trace (if
        # any) travels as an id field rather than an object binding.
        tracer = self.tracer
        trace = tracer.lookup(columns.trace_id) if tracer is not None else None
        n_requests = columns.n_requests
        user_ids = columns.user_ids
        lengths = columns.lengths
        offsets = offsets_from_lengths(lengths)
        errors: dict[int, ErrorResponse] = {}

        # 1. Context detection over the WHOLE block in one vectorized pass
        #    when the frame carries no device-reported contexts; if the
        #    shared pass fails, fall back per request (on block slices) so
        #    only the offending requests are rejected — mirroring the
        #    object path.
        codes = columns.context_codes
        if codes is None:
            try:
                codes = self.gateway.detect_context_codes(columns.features)
            except Exception:
                codes = np.zeros(columns.n_windows, dtype=np.int8)
                for index in range(n_requests):
                    start, stop = int(offsets[index]), int(offsets[index + 1])
                    try:
                        codes[start:stop] = self.gateway.detect_context_codes(
                            columns.features[start:stop]
                        )
                    except Exception as error:
                        errors[index] = self._error(
                            "authenticate", error, user_ids[index]
                        )

        # 2. Resolve each surviving request to its serving-table row; a
        #    missing model rejects that request alone.
        rows, models = self._table_rows(columns, errors)
        live = [index for index in range(n_requests) if index not in errors]
        scored_lengths = np.zeros(n_requests, dtype=np.intp)
        model_versions = np.zeros(n_requests, dtype=np.int64)
        if not live:
            return ColumnarAuthResult(
                user_ids=user_ids,
                scores=np.empty(0),
                accepted=np.empty(0, dtype=bool),
                model_context_codes=np.empty(0, dtype=np.int8),
                lengths=scored_lengths,
                model_versions=model_versions,
                errors=errors,
            )

        if len(live) == n_requests:
            # The hot common case: every request survives, so the wire
            # block feeds the fused pass as-is — zero copies.
            stacked, live_lengths, live_codes = columns.features, lengths, codes
        else:
            keep = np.zeros(columns.n_windows, dtype=bool)
            for index in live:
                keep[offsets[index] : offsets[index + 1]] = True
            stacked = columns.features[keep]
            live_lengths = lengths[live]
            live_codes = codes[keep]
            rows = rows[live]

        # 3. One coalesced scoring pass over every surviving request; if
        #    the shared pass fails (e.g. one request's rows do not match
        #    its model's width), score each request individually so one
        #    bad request cannot poison its neighbours.
        self._refresh_stack_cache()
        hits, misses = self.stack_cache.hits, self.stack_cache.misses
        fused_started = perf_counter() if trace is not None else 0.0
        fused = True
        try:
            with self.telemetry.timer("authenticate"):
                stacked_result = score_stacked(
                    models, rows, stacked, live_lengths, live_codes, self.stack_cache
                )
        except Exception:
            fused = False
            scores, accepted, model_codes = self._score_columns_fallback(
                columns,
                live,
                stacked,
                live_lengths,
                live_codes,
                errors,
                scored_lengths,
                model_versions,
            )
        else:
            scores = stacked_result.scores
            accepted = stacked_result.accepted
            model_codes = stacked_result.model_context_codes
            scored_lengths[live] = live_lengths
            model_versions[live] = stacked_result.model_versions
            self.telemetry.increment("frontend.coalesced_batches")
            self.telemetry.increment("frontend.coalesced_windows", len(scores))
        cache_hits = self.stack_cache.hits - hits
        cache_misses = self.stack_cache.misses - misses
        self.telemetry.increment("frontend.stack_cache.hits", cache_hits)
        self.telemetry.increment("frontend.stack_cache.misses", cache_misses)
        if trace is not None:
            trace.add_span(
                SPAN_FUSED_PASS,
                perf_counter() - fused_started,
                flush_id=next(self._flush_ids),
                batch_size=len(live),
                windows=int(len(scores)),
                coalesced=fused,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
            )
        self.gateway.record_decision_counts(
            len(scores), int(np.count_nonzero(accepted))
        )
        return ColumnarAuthResult(
            user_ids=user_ids,
            scores=scores,
            accepted=accepted,
            model_context_codes=model_codes,
            lengths=scored_lengths,
            model_versions=model_versions,
            errors=errors,
        )

    def _table_rows(
        self, columns: AuthenticateColumns, errors: dict[int, ErrorResponse]
    ) -> tuple[np.ndarray, ModelTable]:
        """Every request's row in the serving table (or appended to it).

        A request not in *errors* resolves to its user's row in the
        current :class:`ServingTable`.  Users missing from the table and
        version pins the table does not serve resolve through
        :meth:`~repro.service.gateway.AuthenticationGateway.scorer_for`:
        its typed error joins *errors*, or its scorer becomes a row
        appended to the table for this flush only.
        """
        table = self._serving_table()
        user_ids, versions = columns.user_ids, columns.versions
        row_by_user = table.row_by_user
        rows = np.fromiter(
            map(row_by_user.get, user_ids, repeat(-1)), dtype=np.intp, count=len(user_ids)
        )
        missing = rows < 0
        if versions is not None:
            served = table.models.versions
            for index, version in enumerate(versions):
                if version is not None and (
                    rows[index] < 0 or version != served[rows[index]]
                ):
                    missing[index] = True
        missing[list(errors)] = False
        models = table.models
        if missing.any():
            appended: list[int] = []
            scorers = []
            for index in np.flatnonzero(missing).tolist():
                try:
                    scorer = self.gateway.scorer_for(
                        user_ids[index], columns.version_for(index)
                    )
                except Exception as error:
                    errors[index] = self._error("authenticate", error, user_ids[index])
                    continue
                appended.append(index)
                scorers.append(scorer)
            if scorers:
                rows[appended] = models.lut.shape[0] + np.arange(len(scorers))
                models = models.with_fallback_rows(scorers)
        return rows, models

    def _score_columns_fallback(
        self,
        columns: AuthenticateColumns,
        live: list[int],
        stacked: np.ndarray,
        live_lengths: np.ndarray,
        live_codes: np.ndarray,
        errors: dict[int, ErrorResponse],
        scored_lengths: np.ndarray,
        model_versions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-request isolation path once the fused columnar pass failed."""
        user_ids = columns.user_ids
        live_offsets = offsets_from_lengths(live_lengths)
        kept_scores: list[np.ndarray] = []
        kept_accepted: list[np.ndarray] = []
        kept_codes: list[np.ndarray] = []
        for position, index in enumerate(live):
            start, stop = int(live_offsets[position]), int(live_offsets[position + 1])
            try:
                scorer = self.gateway.scorer_for(user_ids[index], columns.version_for(index))
                with self.telemetry.timer("authenticate"):
                    result = scorer.score(stacked[start:stop], live_codes[start:stop])
            except Exception as error:
                errors[index] = self._error("authenticate", error, user_ids[index])
                continue
            kept_scores.append(result.scores)
            kept_accepted.append(result.accepted)
            kept_codes.append(
                np.fromiter(
                    (CONTEXT_CODES[context] for context in result.model_contexts),
                    dtype=np.int8,
                    count=len(result),
                )
            )
            scored_lengths[index] = len(result)
            model_versions[index] = result.model_version
        if not kept_scores:
            return np.empty(0), np.empty(0, dtype=bool), np.empty(0, dtype=np.int8)
        return (
            np.concatenate(kept_scores),
            np.concatenate(kept_accepted),
            np.concatenate(kept_codes),
        )

    # ------------------------------------------------------------------ #
    # the coalesced authenticate pass
    # ------------------------------------------------------------------ #

    def _authenticate_coalesced(
        self, batch: Sequence[AuthenticateRequest]
    ) -> list[Response]:
        self.telemetry.increment("frontend.requests", len(batch))
        with self.telemetry.timer("frontend.authenticate"):
            with self._locked(request.user_id for request in batch):
                return self._score_batch(batch)

    def _score_batch(self, batch: Sequence[AuthenticateRequest]) -> list[Response]:
        # Object requests carry traces by identity binding (they cross the
        # micro-batch queue as the same frozen object).
        tracer = self.tracer
        traces = None
        if tracer is not None:
            traces = [tracer.trace_for(request) for request in batch]
            if not any(trace is not None for trace in traces):
                traces = None
        responses: list[Response | None] = [None] * len(batch)

        # 1. Context detection for every request that did not report
        #    contexts, in ONE vectorized detector pass over all their rows
        #    (emitting int context codes — the hot path never builds enum
        #    tuples).  If the shared pass fails (e.g. one request's
        #    malformed feature width breaks the stack), fall back to
        #    per-request detection so only the offending requests are
        #    rejected.
        detected: dict[int, np.ndarray] = {}
        needing = [index for index, request in enumerate(batch) if request.contexts is None]
        if needing:
            rows = [batch[index].features for index in needing]
            try:
                codes = self.gateway.detect_context_codes(np.vstack(rows))
            except Exception:
                for index in needing:
                    try:
                        detected[index] = self.gateway.detect_context_codes(
                            batch[index].features
                        )
                    except Exception as error:
                        responses[index] = self._error(
                            "authenticate", error, batch[index].user_id
                        )
            else:
                offset = 0
                for index, request_rows in zip(needing, rows):
                    detected[index] = codes[offset : offset + len(request_rows)]
                    offset += len(request_rows)

        # 2. Resolve each remaining request's served scorer; a missing
        #    model rejects that request alone.
        live: list[int] = []
        scorers, features_list, contexts_list = [], [], []
        for index, request in enumerate(batch):
            if responses[index] is not None:
                continue
            try:
                scorer = self.gateway.scorer_for(request.user_id, request.version)
            except Exception as error:
                responses[index] = self._error("authenticate", error, request.user_id)
                continue
            live.append(index)
            scorers.append(scorer)
            features_list.append(request.features)
            contexts_list.append(
                detected[index] if request.contexts is None else request.context_codes
            )

        # 3. One coalesced scoring pass over every surviving request; the
        #    "authenticate" latency recorder keeps measuring backend scoring
        #    time exactly as the per-request gateway path does.  If the
        #    shared pass fails (e.g. one request's rows do not match its
        #    model's width), score each request individually so one bad
        #    request cannot poison its neighbours.
        if live:
            # Mirrors score_requests' own fusibility condition: mixed
            # feature widths make it score per request with no fusion, so
            # the coalesced.* counters must not claim those windows.
            coalesced = (
                len({features.shape[1] for features in features_list if len(features)})
                <= 1
            )
            self._refresh_stack_cache()
            hits, misses = self.stack_cache.hits, self.stack_cache.misses
            fused_started = perf_counter() if traces is not None else 0.0
            try:
                with self.telemetry.timer("authenticate"):
                    results = score_requests(
                        scorers, features_list, contexts_list, self.stack_cache
                    )
            except Exception:
                coalesced = False
                results = []
                for position, index in enumerate(live):
                    try:
                        with self.telemetry.timer("authenticate"):
                            results.append(
                                scorers[position].score(
                                    features_list[position], contexts_list[position]
                                )
                            )
                    except Exception as error:
                        results.append(None)
                        responses[index] = self._error(
                            "authenticate", error, batch[index].user_id
                        )
            if coalesced:
                self.telemetry.increment("frontend.coalesced_batches")
            cache_hits = self.stack_cache.hits - hits
            cache_misses = self.stack_cache.misses - misses
            self.telemetry.increment("frontend.stack_cache.hits", cache_hits)
            self.telemetry.increment("frontend.stack_cache.misses", cache_misses)
            if traces is not None:
                fused_s = perf_counter() - fused_started
                flush_id = next(self._flush_ids)
                for index in live:
                    request_trace = traces[index]
                    if request_trace is not None:
                        request_trace.add_span(
                            SPAN_FUSED_PASS,
                            fused_s,
                            flush_id=flush_id,
                            batch_size=len(live),
                            coalesced=coalesced,
                            cache_hits=cache_hits,
                            cache_misses=cache_misses,
                        )
            for index, result in zip(live, results):
                if result is None:
                    continue
                self.gateway.record_authentication(result)
                if coalesced:
                    # The coalesced.* counters measure fusion specifically;
                    # windows scored by the per-request fallback still count
                    # in auth.* but not here.
                    self.telemetry.increment("frontend.coalesced_windows", len(result))
                responses[index] = AuthenticationResponse(
                    user_id=batch[index].user_id, result=result
                )
        return responses  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# asynchronous micro-batching queue
# --------------------------------------------------------------------- #

_SENTINEL = object()


class MicroBatchQueue:
    """Coalesces concurrently submitted requests into frontend batches.

    Callers :meth:`submit` individual protocol requests and receive
    :class:`~concurrent.futures.Future`\\ s; a background worker blocks for
    the first pending request, then takes whatever else is already queued
    — never waiting for more, and at most ``max_batch`` requests — and
    dispatches that slice at once through
    :meth:`ServiceFrontend.submit_many`, where consecutive authenticate
    requests coalesce into single vectorized passes.  A lone request
    therefore pays no batching delay; under load, requests that arrive
    while one slice is being dispatched form the next, so the backlog
    sets the batch size.

    **Admission control.**  ``max_depth`` bounds how many accepted requests
    may be pending at once; without it a slow backend lets callers enqueue
    unbounded work (and memory).  When the bound is hit, the ``overflow``
    policy decides what a new submission does:

    * ``"reject"`` (default) — the returned future resolves immediately to
      a typed :class:`~repro.service.protocol.ThrottledResponse` carrying
      the queue state and a retry hint; nothing is enqueued.
    * ``"block"`` — the submitting thread waits until the worker drains a
      slot (or the queue stops, which raises ``RuntimeError``), applying
      backpressure to the caller instead of the queue.

    Every dispatched request's time-in-queue lands in the frontend
    telemetry's ``frontend.queue_wait`` latency recorder; rejections count
    in the ``frontend.throttled`` counter.

    Use as a context manager, or call :meth:`start`/:meth:`stop`.

    Parameters
    ----------
    frontend:
        The frontend whose :meth:`~ServiceFrontend.submit_many` dispatches
        each drained slice (and whose telemetry hub records queue metrics).
    max_batch:
        Most requests dispatched in one slice (>= 1).
    max_delay_s:
        Longest the worker keeps gathering one slice while requests keep
        arriving (>= 0); it never waits on an empty queue.  ``0`` dispatches
        every request as its own slice.
    max_depth:
        Bound on pending (accepted but not yet dispatched) requests;
        ``None`` (default) keeps the queue unbounded.
    overflow:
        ``"reject"`` or ``"block"`` — what :meth:`submit` does when
        ``max_depth`` pending requests already wait.

    Raises
    ------
    ValueError
        If any knob is out of range or ``overflow`` names no policy.
    """

    #: Valid ``overflow`` policies.
    OVERFLOW_POLICIES = ("reject", "block")

    def __init__(
        self,
        frontend: ServiceFrontend,
        max_batch: int = 256,
        max_delay_s: float = 0.005,
        max_depth: int | None = None,
        overflow: str = "reject",
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0.0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 (or None), got {max_depth}")
        if overflow not in self.OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {self.OVERFLOW_POLICIES}, got {overflow!r}"
            )
        self.frontend = frontend
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_depth = max_depth
        self.overflow = overflow
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._worker: threading.Thread | None = None
        # submit() enqueues under this lock and stop() flips _closed under
        # it before posting the sentinel, so every accepted request is
        # ordered ahead of the sentinel and gets processed — a concurrent
        # submit/stop race can never strand a future unresolved.
        self._submit_guard = threading.Lock()
        # Pending-request count, guarded by its own condition: the worker
        # decrements (and wakes blocked submitters) without ever touching
        # the submit guard, which stop() holds while joining the worker.
        self._depth_cond = threading.Condition()
        self._depth = 0
        self._closed = True

    @property
    def depth(self) -> int:
        """Accepted requests still waiting to be dispatched."""
        with self._depth_cond:
            return self._depth

    # ------------------------------------------------------------------ #

    def start(self) -> "MicroBatchQueue":
        """Start the background batching worker (idempotent).

        Runs entirely under the submit guard, so concurrent start/stop
        calls serialize: a start can neither observe a worker that a
        racing stop is about to join (and wrongly report a dead queue as
        running) nor double-spawn workers.
        """
        with self._submit_guard:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._run, name="micro-batch-queue", daemon=True
                )
                self._closed = False
                self._worker.start()
        return self

    def stop(self) -> None:
        """Drain pending requests and stop the worker.

        Also serialized under the submit guard; the worker never takes the
        guard, so joining it while holding the guard cannot deadlock.
        """
        with self._submit_guard:
            worker = self._worker
            if worker is not None and worker.is_alive():
                if not self._closed:
                    self._closed = True
                    self._queue.put(_SENTINEL)
                # Submitters blocked on a full queue must observe the close
                # and bail out instead of waiting for capacity forever.
                with self._depth_cond:
                    self._depth_cond.notify_all()
                worker.join()
            self._closed = True
            self._worker = None

    def __enter__(self) -> "MicroBatchQueue":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> "Future[Response]":
        """Enqueue one request; the future resolves to its response.

        Non-protocol objects are rejected here, synchronously, so an
        invalid submission can never reach a batch slice and fail its
        neighbours' futures.  When ``max_depth`` pending requests already
        wait, the configured ``overflow`` policy applies: ``"reject"``
        resolves the returned future immediately to a
        :class:`~repro.service.protocol.ThrottledResponse`, ``"block"``
        waits for a free slot.

        Returns
        -------
        concurrent.futures.Future
            Resolves to the request's protocol response (which may be a
            :class:`~repro.service.protocol.ThrottledResponse` under the
            reject policy).

        Raises
        ------
        TypeError
            If *request* is not a protocol request, or is a control-plane
            operation — the queue admits only the hot data path (enroll /
            authenticate / drift-report); admin operations dispatch through
            :meth:`ServiceFrontend.submit_control`.
        RuntimeError
            If the queue is not running, or stops while this submission is
            blocked waiting for capacity.
        """
        kind = request_kind(request)  # raises TypeError on non-protocol input
        if not is_data_plane(request):
            raise TypeError(
                f"the micro-batch queue admits only data-plane requests "
                f"(enroll / authenticate / drift-report); {kind!r} is a "
                "control-plane operation — dispatch it through "
                "ServiceFrontend.submit_control()"
            )
        while True:
            with self._submit_guard:
                if self._closed or self._worker is None or not self._worker.is_alive():
                    raise RuntimeError(
                        "MicroBatchQueue is not running; call start() first"
                    )
                with self._depth_cond:
                    if self.max_depth is None or self._depth < self.max_depth:
                        self._depth += 1
                        future: "Future[Response]" = Future()
                        self._queue.put((request, future, monotonic()))
                        return future
                    if self.overflow == "reject":
                        self.frontend.telemetry.increment("frontend.throttled")
                        throttled: "Future[Response]" = Future()
                        throttled.set_result(
                            ThrottledResponse(
                                request_kind=kind,
                                reason="queue-full",
                                queue_depth=self._depth,
                                max_depth=self.max_depth,
                                retry_after_s=self.max_delay_s,
                                user_id=getattr(request, "user_id", None),
                            )
                        )
                        return throttled
            # Block policy: wait for capacity OUTSIDE the submit guard so a
            # concurrent stop() (which holds the guard while joining the
            # worker) can still proceed and wake us up to fail cleanly.
            with self._depth_cond:
                self._depth_cond.wait_for(
                    lambda: self._closed
                    or self.max_depth is None
                    or self._depth < self.max_depth
                )

    def _release_slot(self) -> None:
        """Free one depth slot and wake a submitter blocked on capacity."""
        with self._depth_cond:
            self._depth -= 1
            self._depth_cond.notify()

    def _run(self) -> None:
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            self._release_slot()
            pending = [item]
            # Take only what is already queued: a lone request dispatches
            # at once, and requests arriving mid-dispatch form the next
            # slice, so the backlog (not a timer) sets the batch size.
            deadline = monotonic() + self.max_delay_s
            while len(pending) < self.max_batch and monotonic() < deadline:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SENTINEL:
                    stopping = True
                    break
                self._release_slot()
                pending.append(item)
            # Claim every future before dispatching: one that was cancelled
            # while pending is dropped here, and can no longer be cancelled
            # mid-dispatch — so the set_result below cannot raise and kill
            # the worker, stranding the other futures in the slice.
            claimed = [
                (request, future, enqueued_at)
                for request, future, enqueued_at in pending
                if future.set_running_or_notify_cancel()
            ]
            if not claimed:
                continue
            drained_at = monotonic()
            tracer = self.frontend.tracer
            for request, _, enqueued_at in claimed:
                wait_s = drained_at - enqueued_at
                self.frontend.telemetry.record("frontend.queue_wait", wait_s)
                if tracer is not None:
                    trace = tracer.trace_for(request)
                    if trace is not None:
                        trace.add_span(
                            SPAN_QUEUE_WAIT, wait_s, batch_size=len(claimed)
                        )
            try:
                responses = self.frontend.submit_many(
                    [request for request, _, _ in claimed]
                )
            except Exception as error:  # defensive: submit_many maps errors
                for _, future, _ in claimed:
                    future.set_exception(error)
            else:
                for (_, future, _), response in zip(claimed, responses):
                    future.set_result(response)
