"""Unit tests for the micro-batching service frontend."""

import threading
import time

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.frontend import LOCK_STRIPES, MicroBatchQueue, ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DriftReport,
    DriftResponse,
    EnrollRequest,
    EnrollResponse,
    ErrorResponse,
    RollbackRequest,
    RollbackResponse,
    SnapshotRequest,
    SnapshotResponse,
    ThrottledResponse,
)


def matrix(uid, mean, n=15, d=5, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


@pytest.fixture()
def frontend():
    frontend = ServiceFrontend(AuthenticationGateway(min_windows_to_train=20))
    for uid, mean, seed in (("bg1", 4.0, 1), ("bg2", 6.0, 2)):
        for context in ("stationary", "moving"):
            frontend.submit(
                EnrollRequest(
                    user_id=uid, matrix=matrix(uid, mean, context=context, seed=seed),
                    train=False,
                )
            )
    return frontend


_PROBE_COUNTER = iter(range(10**6))


def probe():
    """A cheap data-plane request for queue plumbing tests (buffers 1 window).

    The micro-batch queue admits only data-plane operations, so queue tests
    probe it with tiny enrollments (``train=False`` → always ``buffered``).
    """
    seed = next(_PROBE_COUNTER)
    return EnrollRequest(
        user_id="queue-probe",
        matrix=matrix("queue-probe", 1.0, n=1, seed=seed),
        train=False,
    )


def train_alice(frontend):
    for context in ("stationary", "moving"):
        frontend.submit(
            EnrollRequest(
                user_id="alice",
                matrix=matrix("alice", 0.0, context=context, seed=3),
                train=False,
            )
        )
    frontend.gateway.train("alice")


class TestDispatch:
    def test_every_request_kind_routes_to_its_response(self, frontend):
        enroll = frontend.submit(
            EnrollRequest(user_id="alice", matrix=matrix("alice", 0.0, seed=3), train=False)
        )
        assert isinstance(enroll, EnrollResponse)
        assert enroll.status == "buffered"
        train_alice(frontend)
        own = matrix("alice", 0.0, n=4, seed=4)
        auth = frontend.submit(
            AuthenticateRequest(
                user_id="alice",
                features=own.values,
                contexts=(CoarseContext.STATIONARY,) * 4,
            )
        )
        assert isinstance(auth, AuthenticationResponse)
        assert len(auth.result) == 4
        drift = frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.4, n=30, seed=5))
        )
        assert isinstance(drift, DriftResponse)
        rollback = frontend.submit(RollbackRequest(user_id="alice"))
        assert isinstance(rollback, RollbackResponse)
        assert rollback.serving_version == drift.previous_version
        snapshot = frontend.submit(SnapshotRequest())
        assert isinstance(snapshot, SnapshotResponse)
        assert snapshot.snapshot["counters"]["frontend.requests"] >= 5

    def test_empty_batch_yields_empty_result(self, frontend):
        train_alice(frontend)
        response = frontend.submit(
            AuthenticateRequest(user_id="alice", features=np.array([]), contexts=())
        )
        assert isinstance(response, AuthenticationResponse)
        assert len(response.result) == 0
        assert response.accept_rate == 0.0

    def test_user_lock_table_stays_bounded(self, frontend):
        stripes = frontend._stripes
        for index in range(200):
            response = frontend.submit(
                AuthenticateRequest(
                    user_id=f"ghost-{index}",
                    features=np.zeros((1, 5)),
                    contexts=(CoarseContext.STATIONARY,),
                )
            )
            assert isinstance(response, ErrorResponse)
        # 200 distinct ids (attacker-chosen ones included) share the fixed
        # stripe array: nothing was added, and every stripe is released.
        assert frontend._stripes is stripes
        assert len(stripes) == LOCK_STRIPES
        assert not any(lock.locked() for lock in stripes)

    def test_non_protocol_input_raises(self, frontend):
        with pytest.raises(TypeError, match="not a protocol request"):
            frontend.submit("authenticate alice")  # type: ignore[arg-type]

    def test_responses_keep_submission_order(self, frontend):
        train_alice(frontend)
        own = matrix("alice", 0.0, n=2, seed=6)
        responses = frontend.submit_many(
            [
                SnapshotRequest(),
                AuthenticateRequest(
                    user_id="alice",
                    features=own.values,
                    contexts=(CoarseContext.STATIONARY,) * 2,
                ),
                RollbackRequest(user_id="ghost"),
                SnapshotRequest(),
            ]
        )
        assert isinstance(responses[0], SnapshotResponse)
        assert isinstance(responses[1], AuthenticationResponse)
        assert isinstance(responses[2], ErrorResponse)
        assert isinstance(responses[3], SnapshotResponse)


class TestErrorMiddleware:
    def test_unknown_user_maps_to_error_response(self, frontend):
        response = frontend.submit(
            AuthenticateRequest(
                user_id="ghost",
                features=np.zeros((1, 5)),
                contexts=(CoarseContext.STATIONARY,),
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.request_kind == "authenticate"
        assert response.error == "KeyError"
        assert response.user_id == "ghost"

    def test_bad_request_does_not_poison_the_batch(self, frontend):
        train_alice(frontend)
        own = matrix("alice", 0.0, n=3, seed=7)
        good = AuthenticateRequest(
            user_id="alice",
            features=own.values,
            contexts=(CoarseContext.STATIONARY,) * 3,
        )
        bad = AuthenticateRequest(
            user_id="ghost",
            features=np.zeros((2, 5)),
            contexts=(CoarseContext.STATIONARY,) * 2,
        )
        responses = frontend.submit_many([bad, good, bad])
        assert isinstance(responses[0], ErrorResponse)
        assert isinstance(responses[2], ErrorResponse)
        expected = frontend.gateway.scorer_for("alice").score(
            own.values, [CoarseContext.STATIONARY] * 3
        )
        np.testing.assert_array_equal(responses[1].scores, expected.scores)
        assert frontend.telemetry.counter_value("frontend.errors") == 2

    def test_malformed_width_does_not_poison_coalesced_neighbours(self, frontend):
        """One request with the wrong feature width fails alone."""
        train_alice(frontend)
        own = matrix("alice", 0.0, n=3, seed=23)
        good = AuthenticateRequest(
            user_id="alice",
            features=own.values,
            contexts=(CoarseContext.STATIONARY,) * 3,
        )
        narrow = AuthenticateRequest(
            user_id="alice",
            features=np.zeros((2, 3)),  # model expects 5 columns
            contexts=(CoarseContext.STATIONARY,) * 2,
        )
        responses = frontend.submit_many([good, narrow, good])
        assert isinstance(responses[1], ErrorResponse)
        assert responses[1].error == "ValueError"
        expected = frontend.gateway.scorer_for("alice").score(
            own.values, [CoarseContext.STATIONARY] * 3
        )
        for survivor in (responses[0], responses[2]):
            assert isinstance(survivor, AuthenticationResponse)
            np.testing.assert_array_equal(survivor.scores, expected.scores)

    def test_malformed_width_does_not_poison_detection_neighbours(self, frontend):
        """Width mismatches must not break the shared detection pass either."""
        train_alice(frontend)
        training = matrix("alice", 0.0, n=40, context="stationary", seed=24).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=25)
        )
        frontend.gateway.train_context_detector(training)
        own = matrix("alice", 0.0, n=3, seed=26)
        responses = frontend.submit_many(
            [
                AuthenticateRequest(user_id="alice", features=own.values),
                AuthenticateRequest(user_id="alice", features=np.zeros((2, 3))),
            ]
        )
        assert isinstance(responses[0], AuthenticationResponse)
        assert isinstance(responses[1], ErrorResponse)

    def test_broadcastable_width_mismatch_rejected_not_accepted(self, frontend):
        """A width-1 probe must be rejected, never broadcast-scored."""
        train_alice(frontend)
        response = frontend.submit(
            AuthenticateRequest(
                user_id="alice",
                features=np.ones((4, 1)),  # broadcastable against 5-wide models
                contexts=(CoarseContext.STATIONARY,) * 4,
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"

    def test_enroll_schema_mismatch_maps_to_error(self, frontend):
        response = frontend.submit(
            EnrollRequest(user_id="alice", matrix=matrix("alice", 0.0, d=3, seed=8))
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"
        assert "feature_names mismatch" in response.message


class TestCoalescing:
    def test_coalesced_batch_matches_per_request_gateway_calls(self, frontend):
        train_alice(frontend)
        for uid, mean, seed in (("bg1", 4.0, 9), ("bg2", 6.0, 10)):
            frontend.gateway.train(uid)
        probes = {
            uid: matrix(uid, mean, n=6, seed=seed)
            for uid, mean, seed in (
                ("alice", 0.0, 11),
                ("bg1", 4.0, 12),
                ("bg2", 6.0, 13),
            )
        }
        contexts = (CoarseContext.STATIONARY, CoarseContext.MOVING) * 3
        requests = [
            AuthenticateRequest(user_id=uid, features=probe.values, contexts=contexts)
            for uid, probe in probes.items()
        ]
        # Two extra requests for the same user coalesce with the first.
        requests.append(
            AuthenticateRequest(
                user_id="alice", features=probes["alice"].values[:2], contexts=contexts[:2]
            )
        )
        coalesced = frontend.submit_many(requests)
        assert frontend.telemetry.counter_value("frontend.coalesced_batches") == 1
        for request, response in zip(requests, coalesced):
            expected = frontend.gateway.scorer_for(request.user_id).score(
                request.features, list(request.contexts)
            )
            np.testing.assert_array_equal(response.scores, expected.scores)
            np.testing.assert_array_equal(response.accepted, expected.accepted)
            assert response.result.model_contexts == expected.model_contexts
            assert response.model_version == expected.model_version

    def test_auth_counters_match_per_request_path(self, frontend):
        train_alice(frontend)
        own = matrix("alice", 0.0, n=8, seed=14)
        contexts = (CoarseContext.STATIONARY,) * 8
        frontend.submit_many(
            [
                AuthenticateRequest(user_id="alice", features=own.values[:5], contexts=contexts[:5]),
                AuthenticateRequest(user_id="alice", features=own.values[5:], contexts=contexts[5:]),
            ]
        )
        counters = frontend.gateway.snapshot()["counters"]
        assert counters["auth.windows"] == 8
        assert counters["auth.accepted"] + counters["auth.rejected"] == 8
        assert counters["frontend.coalesced_windows"] == 8


class TestServerSideContextDetection:
    def test_without_detector_maps_to_error(self, frontend):
        train_alice(frontend)
        response = frontend.submit(
            AuthenticateRequest(user_id="alice", features=np.zeros((2, 5)))
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "KeyError"
        assert "context detector" in response.message

    def test_detected_contexts_match_device_reported_truth(self, frontend):
        train_alice(frontend)
        # Distinct, well-separated context clusters so detection is exact.
        labelled = matrix("alice", 0.0, n=40, context="stationary", seed=15)
        moving = matrix("alice", 5.0, n=40, context="moving", seed=16)
        training = labelled.concatenate(moving)
        version = frontend.gateway.train_context_detector(training)
        assert version == 1
        assert frontend.gateway.registry.context_detector_versions() == [1]
        probe = np.vstack([labelled.values[:3], moving.values[:3]])
        truth = (CoarseContext.STATIONARY,) * 3 + (CoarseContext.MOVING,) * 3
        detected = frontend.submit(
            AuthenticateRequest(user_id="alice", features=probe)
        )
        reported = frontend.submit(
            AuthenticateRequest(user_id="alice", features=probe, contexts=truth)
        )
        assert isinstance(detected, AuthenticationResponse)
        np.testing.assert_array_equal(detected.scores, reported.scores)
        np.testing.assert_array_equal(detected.accepted, reported.accepted)
        assert detected.result.model_contexts == truth
        assert frontend.telemetry.counter_value("context.detections") == 6

    def test_detection_shares_one_pass_across_requests(self, frontend):
        train_alice(frontend)
        training = matrix("alice", 0.0, n=40, context="stationary", seed=17).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=18)
        )
        frontend.gateway.train_context_detector(training)
        probe = matrix("alice", 0.0, n=4, seed=19)
        responses = frontend.submit_many(
            [
                AuthenticateRequest(user_id="alice", features=probe.values[:2]),
                AuthenticateRequest(user_id="alice", features=probe.values[2:]),
            ]
        )
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        # Both requests' rows were labelled by one detector call inside the
        # coalesced pass; the detection counter covers all 4 windows.
        assert frontend.telemetry.counter_value("context.detections") == 4


class TestControlDoor:
    def test_submit_control_dispatches_with_error_mapping(self, frontend):
        response = frontend.submit_control(RollbackRequest(user_id="ghost"))
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"  # nothing to roll back to
        snapshot = frontend.submit_control(SnapshotRequest())
        assert isinstance(snapshot, SnapshotResponse)

    def test_submit_control_rejects_data_plane_requests(self, frontend):
        from repro.service.gateway import PlaneMismatchError

        with pytest.raises(PlaneMismatchError, match="unreachable"):
            frontend.submit_control(
                AuthenticateRequest(
                    user_id="alice",
                    features=np.zeros((1, 5)),
                    contexts=(CoarseContext.STATIONARY,),
                )
            )
        with pytest.raises(TypeError, match="not a protocol request"):
            frontend.submit_control("snapshot")  # type: ignore[arg-type]

    def test_queue_admits_only_the_data_plane(self, frontend):
        with MicroBatchQueue(frontend, max_batch=4, max_delay_s=0.01) as queue:
            accepted = queue.submit(probe())
            with pytest.raises(TypeError, match="data-plane"):
                queue.submit(SnapshotRequest())
            with pytest.raises(TypeError, match="data-plane"):
                queue.submit(RollbackRequest(user_id="alice"))
            assert isinstance(accepted.result(timeout=5), EnrollResponse)


class TestMicroBatchQueue:
    def test_concurrent_submissions_coalesce_and_fan_out(self, frontend):
        train_alice(frontend)
        for uid in ("bg1", "bg2"):
            frontend.gateway.train(uid)
        probes = {
            "alice": matrix("alice", 0.0, n=4, seed=20),
            "bg1": matrix("bg1", 4.0, n=4, seed=21),
            "bg2": matrix("bg2", 6.0, n=4, seed=22),
        }
        contexts = (CoarseContext.STATIONARY,) * 4
        with MicroBatchQueue(frontend, max_batch=64, max_delay_s=0.02) as queue:
            barrier = threading.Barrier(len(probes))
            futures = {}

            def submit(uid):
                barrier.wait()
                futures[uid] = queue.submit(
                    AuthenticateRequest(
                        user_id=uid, features=probes[uid].values, contexts=contexts
                    )
                )

            threads = [
                threading.Thread(target=submit, args=(uid,)) for uid in probes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for uid, future in futures.items():
                response = future.result(timeout=5)
                assert isinstance(response, AuthenticationResponse)
                assert response.user_id == uid
                expected = frontend.gateway.scorer_for(uid).score(
                    probes[uid].values, list(contexts)
                )
                np.testing.assert_array_equal(response.scores, expected.scores)

    def test_submit_requires_running_worker(self, frontend):
        queue = MicroBatchQueue(frontend)
        with pytest.raises(RuntimeError, match="not running"):
            queue.submit(probe())

    def test_submit_after_stop_raises_instead_of_hanging(self, frontend):
        queue = MicroBatchQueue(frontend)
        queue.start()
        queue.stop()
        with pytest.raises(RuntimeError, match="not running"):
            queue.submit(probe())
        # Restart works and serves again.
        with queue:
            assert isinstance(
                queue.submit(probe()).result(timeout=5), EnrollResponse
            )

    def test_cancelled_future_does_not_kill_the_worker(self, frontend):
        with MicroBatchQueue(frontend, max_batch=4, max_delay_s=0.05) as queue:
            first = queue.submit(probe())
            first.cancel()  # may or may not win the race with the worker
            second = queue.submit(probe())
            assert isinstance(second.result(timeout=5), EnrollResponse)
            # The worker survived whichever way the cancellation raced.
            third = queue.submit(probe())
            assert isinstance(third.result(timeout=5), EnrollResponse)
            if not first.cancelled():
                assert isinstance(first.result(timeout=5), EnrollResponse)

    def test_non_protocol_submission_rejected_before_enqueue(self, frontend):
        """Invalid input fails synchronously, never poisoning a batch slice."""
        with MicroBatchQueue(frontend, max_batch=8, max_delay_s=0.05) as queue:
            good = queue.submit(probe())
            with pytest.raises(TypeError, match="not a protocol request"):
                queue.submit("junk")  # type: ignore[arg-type]
            assert isinstance(good.result(timeout=5), EnrollResponse)

    def test_stop_drains_pending_requests(self, frontend):
        queue = MicroBatchQueue(frontend, max_batch=8, max_delay_s=0.2)
        queue.start()
        futures = [queue.submit(probe()) for _ in range(5)]
        queue.stop()
        for future in futures:
            assert isinstance(future.result(timeout=1), EnrollResponse)

    def test_lone_request_never_waits_out_the_delay(self, frontend):
        with MicroBatchQueue(frontend, max_batch=64, max_delay_s=60.0) as queue:
            assert isinstance(queue.submit(probe()).result(timeout=5), EnrollResponse)

    @pytest.mark.parametrize(
        "max_batch, max_delay_s, backlog, slices",
        [
            (64, 60.0, 5, [1, 5]),  # the backlog forms the next slice
            (2, 60.0, 5, [1, 2, 2, 1]),  # max_batch splits it
            (64, 0.0, 3, [1, 1, 1, 1]),  # no gathering at all
        ],
    )
    def test_requests_queued_during_a_dispatch_form_the_next_slices(
        self, frontend, max_batch, max_delay_s, backlog, slices
    ):
        sizes, entered, release = _gate_submit_many(frontend)
        with MicroBatchQueue(
            frontend, max_batch=max_batch, max_delay_s=max_delay_s
        ) as queue:
            futures = [queue.submit(probe())]
            assert entered.wait(timeout=5)  # the worker holds a slice of one
            futures += [queue.submit(probe()) for _ in range(backlog)]
            assert queue.depth == backlog
            release.set()
            for future in futures:
                assert isinstance(future.result(timeout=5), EnrollResponse)
        assert sizes == slices

    def test_rejects_degenerate_parameters(self, frontend):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatchQueue(frontend, max_batch=0)
        with pytest.raises(ValueError, match="max_delay_s"):
            MicroBatchQueue(frontend, max_delay_s=-1.0)
        with pytest.raises(ValueError, match="max_depth"):
            MicroBatchQueue(frontend, max_depth=0)
        with pytest.raises(ValueError, match="overflow"):
            MicroBatchQueue(frontend, overflow="shed")


def _gate_submit_many(frontend):
    """Hold the queue worker in its first slice; returns (sizes, entered, release).

    ``sizes`` records the length of every slice the worker dispatches.
    """
    sizes, entered, release = [], threading.Event(), threading.Event()
    original = frontend.submit_many

    def gated_submit_many(requests):
        sizes.append(len(requests))
        entered.set()
        assert release.wait(timeout=10), "test never released the worker"
        return original(requests)

    frontend.submit_many = gated_submit_many
    return sizes, entered, release


def _block_gateway(frontend):
    """Make the gateway block on an event; returns (entered, release)."""
    entered, release = threading.Event(), threading.Event()
    original = frontend.gateway.handle

    def slow_handle(request):
        entered.set()
        assert release.wait(timeout=10), "test never released the gateway"
        return original(request)

    frontend.gateway.handle = slow_handle
    return entered, release


class TestAdmissionControl:
    def test_full_queue_rejects_with_throttled_response(self, frontend):
        entered, release = _block_gateway(frontend)
        queue = MicroBatchQueue(
            frontend, max_batch=1, max_delay_s=0.0, max_depth=1, overflow="reject"
        )
        with queue:
            first = queue.submit(probe())  # claimed by the worker
            assert entered.wait(timeout=5)  # ...which is now stuck in dispatch
            second = queue.submit(probe())  # fills the only slot
            assert queue.depth == 1
            third = queue.submit(
                AuthenticateRequest(
                    user_id="alice",
                    features=np.zeros((1, 5)),
                    contexts=(CoarseContext.STATIONARY,),
                )
            )
            # The reject policy resolves the future immediately and typed.
            response = third.result(timeout=1)
            assert isinstance(response, ThrottledResponse)
            assert response.reason == "queue-full"
            assert response.request_kind == "authenticate"
            assert response.user_id == "alice"
            assert response.queue_depth == 1
            assert response.max_depth == 1
            assert frontend.telemetry.counter_value("frontend.throttled") == 1
            release.set()
            assert isinstance(first.result(timeout=5), EnrollResponse)
            assert isinstance(second.result(timeout=5), EnrollResponse)
        # Accepted requests were never throttled.
        assert frontend.telemetry.counter_value("frontend.throttled") == 1

    def test_block_policy_applies_backpressure_to_the_submitter(self, frontend):
        entered, release = _block_gateway(frontend)
        queue = MicroBatchQueue(
            frontend, max_batch=1, max_delay_s=0.0, max_depth=1, overflow="block"
        )
        with queue:
            first = queue.submit(probe())
            assert entered.wait(timeout=5)
            second = queue.submit(probe())
            resolved = []

            def blocked_submit():
                resolved.append(queue.submit(probe()))

            submitter = threading.Thread(target=blocked_submit)
            submitter.start()
            time.sleep(0.1)
            assert not resolved  # still waiting for a slot, nothing dropped
            release.set()
            submitter.join(timeout=5)
            assert not submitter.is_alive()
            for future in (first, second, *resolved):
                assert isinstance(future.result(timeout=5), EnrollResponse)
        assert frontend.telemetry.counter_value("frontend.throttled") == 0

    def test_stop_fails_a_blocked_submitter_cleanly(self, frontend):
        entered, release = _block_gateway(frontend)
        queue = MicroBatchQueue(
            frontend, max_batch=1, max_delay_s=0.0, max_depth=1, overflow="block"
        )
        queue.start()
        first = queue.submit(probe())
        assert entered.wait(timeout=5)
        second = queue.submit(probe())
        outcome = []

        def blocked_submit():
            try:
                outcome.append(queue.submit(probe()))
            except RuntimeError as error:
                outcome.append(error)

        submitter = threading.Thread(target=blocked_submit)
        submitter.start()
        time.sleep(0.1)
        stopper = threading.Thread(target=queue.stop)
        stopper.start()
        time.sleep(0.1)
        release.set()
        stopper.join(timeout=10)
        submitter.join(timeout=10)
        assert not stopper.is_alive() and not submitter.is_alive()
        # The blocked submission observed the shutdown (RuntimeError) rather
        # than hanging forever or being silently dropped...
        assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
        # ...while both accepted requests were drained and answered.
        assert isinstance(first.result(timeout=5), EnrollResponse)
        assert isinstance(second.result(timeout=5), EnrollResponse)

    def test_queue_wait_telemetry_recorded_per_dispatched_request(self, frontend):
        with MicroBatchQueue(frontend, max_batch=4, max_delay_s=0.01) as queue:
            futures = [queue.submit(probe()) for _ in range(3)]
            for future in futures:
                future.result(timeout=5)
        recorder = frontend.telemetry.latency("frontend.queue_wait")
        assert recorder.count == 3
        assert recorder.max_seconds < 5.0

    def test_unbounded_queue_never_throttles(self, frontend):
        with MicroBatchQueue(frontend, max_batch=2, max_delay_s=0.0) as queue:
            futures = [queue.submit(probe()) for _ in range(20)]
            for future in futures:
                assert isinstance(future.result(timeout=5), EnrollResponse)
        assert frontend.telemetry.counter_value("frontend.throttled") == 0


class TestFusedStackCacheIntegration:
    def _requests(self, frontend, seed):
        probes = {
            uid: matrix(uid, mean, n=6, seed=seed + offset)
            for offset, (uid, mean) in enumerate(
                (("alice", 0.0), ("bg1", 4.0), ("bg2", 6.0))
            )
        }
        contexts = (CoarseContext.STATIONARY, CoarseContext.MOVING) * 3
        return [
            AuthenticateRequest(user_id=uid, features=probe.values, contexts=contexts)
            for uid, probe in probes.items()
        ]

    def _trained(self, frontend):
        train_alice(frontend)
        for uid in ("bg1", "bg2"):
            frontend.gateway.train(uid)

    def test_repeated_flushes_hit_the_cache_with_identical_scores(self, frontend):
        self._trained(frontend)
        first = frontend.submit_many(self._requests(frontend, seed=40))
        assert frontend.stack_cache.misses >= 1
        hits_before = frontend.stack_cache.hits
        second = frontend.submit_many(self._requests(frontend, seed=40))
        assert frontend.stack_cache.hits == hits_before + 1
        assert len(frontend.stack_cache) == 1
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.scores, b.scores)
        counters = frontend.gateway.snapshot()["counters"]
        assert counters["frontend.stack_cache.hits"] == frontend.stack_cache.hits
        assert counters["frontend.stack_cache.misses"] == frontend.stack_cache.misses

    def test_cached_flush_matches_per_request_gateway_scores(self, frontend):
        self._trained(frontend)
        requests = self._requests(frontend, seed=50)
        frontend.submit_many(requests)  # warm the cache
        for request, response in zip(requests, frontend.submit_many(requests)):
            expected = frontend.gateway.scorer_for(request.user_id).score(
                request.features, list(request.contexts)
            )
            np.testing.assert_array_equal(response.scores, expected.scores)
            np.testing.assert_array_equal(response.accepted, expected.accepted)

    def test_publish_invalidates_the_cache(self, frontend):
        self._trained(frontend)
        requests = self._requests(frontend, seed=60)
        frontend.submit_many(requests)
        assert len(frontend.stack_cache) == 1
        # A drift retrain publishes a new version -> generation moves.
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.3, n=30, seed=61))
        )
        responses = frontend.submit_many(requests)
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        # The old entry was dropped; the new model set occupies one entry.
        assert len(frontend.stack_cache) == 1
        assert responses[0].model_version == 2  # alice is served the retrain

    def test_rollback_invalidates_the_cache(self, frontend):
        self._trained(frontend)
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.3, n=30, seed=62))
        )
        requests = self._requests(frontend, seed=63)
        frontend.submit_many(requests)
        entries_before = len(frontend.stack_cache)
        assert entries_before >= 1
        frontend.submit(RollbackRequest(user_id="alice"))
        responses = frontend.submit_many(requests)
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        assert responses[0].model_version == 1  # alice serves v1 again


class TestColumnarDoor:
    """submit_columns: the zero-copy twin of a coalesced submit_many."""

    def _columns(self, requests):
        from repro.service.protocol import AuthenticateColumns

        return AuthenticateColumns(
            user_ids=tuple(r.user_id for r in requests),
            features=np.vstack([r.features for r in requests]),
            lengths=np.array([len(r.features) for r in requests]),
            context_codes=(
                None
                if requests[0].contexts is None
                else np.concatenate([r.context_codes for r in requests])
            ),
            versions=tuple(r.version for r in requests),
        )

    def _requests(self, frontend, contexts=True, users=("alice", "alice")):
        train_alice(frontend)
        rng = np.random.default_rng(21)
        return [
            AuthenticateRequest(
                user_id=user,
                features=rng.normal(0.0, 1.0, size=(3, 5)),
                contexts=(
                    (CoarseContext.STATIONARY, CoarseContext.MOVING,
                     CoarseContext.STATIONARY)
                    if contexts
                    else None
                ),
            )
            for user in users
        ]

    def test_columnar_results_match_submit_many_bit_for_bit(self, frontend):
        requests = self._requests(frontend)
        reference = frontend.submit_many(requests)
        result = frontend.submit_columns(self._columns(requests))
        assert not result.errors
        responses = result.responses()
        for expected, actual in zip(reference, responses):
            assert isinstance(actual, AuthenticationResponse)
            np.testing.assert_array_equal(actual.scores, expected.scores)
            np.testing.assert_array_equal(actual.accepted, expected.accepted)
            assert actual.result.model_contexts == expected.result.model_contexts
            assert actual.model_version == expected.model_version

    def test_unknown_user_errors_in_place_without_costing_neighbours(self, frontend):
        requests = self._requests(frontend, users=("alice", "ghost", "alice"))
        result = frontend.submit_columns(self._columns(requests))
        assert set(result.errors) == {1}
        assert result.errors[1].error == "KeyError"
        assert result.lengths.tolist() == [3, 0, 3]
        responses = result.responses()
        assert isinstance(responses[0], AuthenticationResponse)
        assert isinstance(responses[1], ErrorResponse)
        assert isinstance(responses[2], AuthenticationResponse)
        reference = frontend.submit_many(requests)
        np.testing.assert_array_equal(responses[0].scores, reference[0].scores)
        np.testing.assert_array_equal(responses[2].scores, reference[2].scores)

    def test_server_side_detection_runs_once_over_the_block(self, frontend):
        train_alice(frontend)
        pool = matrix("alice", 0.0, context="stationary", seed=5).concatenate(
            matrix("alice", 0.0, context="moving", seed=6)
        )
        frontend.gateway.train_context_detector(pool)
        requests = self._requests(frontend, contexts=False)
        reference = frontend.submit_many(requests)
        before = frontend.telemetry.counter_value("context.detections")
        result = frontend.submit_columns(self._columns(requests))
        assert frontend.telemetry.counter_value("context.detections") - before == 6
        for expected, actual in zip(reference, result.responses()):
            np.testing.assert_array_equal(actual.scores, expected.scores)
            assert actual.result.model_contexts == expected.result.model_contexts

    def test_telemetry_counters_match_the_object_path(self, frontend):
        requests = self._requests(frontend)
        result_counters = {}
        for label, submit in (
            ("objects", lambda: frontend.submit_many(requests)),
            ("columns", lambda: frontend.submit_columns(self._columns(requests))),
        ):
            before = {
                name: frontend.telemetry.counter_value(name)
                for name in (
                    "frontend.requests",
                    "frontend.coalesced_batches",
                    "frontend.coalesced_windows",
                    "auth.windows",
                    "auth.accepted",
                    "auth.rejected",
                )
            }
            submit()
            result_counters[label] = {
                name: frontend.telemetry.counter_value(name) - value
                for name, value in before.items()
            }
        assert result_counters["objects"] == result_counters["columns"]

    def test_type_error_on_non_columnar_input(self, frontend):
        with pytest.raises(TypeError, match="AuthenticateColumns"):
            frontend.submit_columns(AuthenticateRequest(
                user_id="alice", features=np.zeros((1, 5)),
                contexts=(CoarseContext.STATIONARY,),
            ))

    def test_columns_validation(self):
        from repro.service.protocol import AuthenticateColumns

        with pytest.raises(ValueError, match="lengths sum"):
            AuthenticateColumns(
                user_ids=("a",),
                features=np.zeros((3, 2)),
                lengths=np.array([2]),
            )
        with pytest.raises(ValueError, match="context codes"):
            AuthenticateColumns(
                user_ids=("a",),
                features=np.zeros((2, 2)),
                lengths=np.array([2]),
                context_codes=np.array([0], dtype=np.int8),
            )


class TestServingTable:
    """submit_columns resolves users through a table built once per generation."""

    USERS = ("alice", "bg1", "bg2")

    def _trained(self, frontend):
        train_alice(frontend)
        for uid in ("bg1", "bg2"):
            frontend.gateway.train(uid)

    def _columns(self, users=USERS, versions=None, detect=False, seed=70):
        from repro.core.scoring import encode_contexts
        from repro.service.protocol import AuthenticateColumns

        rng = np.random.default_rng(seed)
        contexts = (CoarseContext.STATIONARY, CoarseContext.MOVING) * 2
        return AuthenticateColumns(
            user_ids=tuple(users),
            features=rng.normal(2.0, 2.5, size=(4 * len(users), 5)),
            lengths=np.full(len(users), 4),
            context_codes=None if detect else encode_contexts(contexts * len(users)),
            versions=versions,
        )

    def _assert_served_like_scorer_for(self, frontend, columns):
        """Every answer equals ``scorer_for(user, version).score`` bit for bit."""
        gateway = frontend.gateway
        result = frontend.submit_columns(columns)
        responses = result.responses()
        codes = columns.context_codes
        if codes is None:
            codes = gateway.detect_context_codes(columns.features)
        for index, user_id in enumerate(columns.user_ids):
            rows = slice(4 * index, 4 * index + 4)
            try:
                expected = gateway.scorer_for(user_id, columns.version_for(index)).score(
                    columns.features[rows], codes[rows]
                )
            except KeyError as error:
                assert isinstance(responses[index], ErrorResponse)
                assert responses[index].error == "KeyError"
                assert responses[index].message == str(error)
                continue
            actual = responses[index]
            assert isinstance(actual, AuthenticationResponse)
            assert actual.scores.tobytes() == expected.scores.tobytes()
            assert actual.accepted.tobytes() == expected.accepted.tobytes()
            assert actual.result.model_contexts == expected.model_contexts
            assert actual.model_version == expected.model_version
        return responses

    def _count_lookups(self, frontend, monkeypatch):
        calls = {"scorer_for": 0, "latest_version": 0}
        for owner, name in (
            (frontend.gateway, "scorer_for"),
            (frontend.gateway.registry, "latest_version"),
        ):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_warm_generation_makes_no_per_user_lookups(self, frontend, monkeypatch):
        self._trained(frontend)
        # Counted from the start: the table memoizes scorer_for, so one
        # swapped in after the build would rebuild it.
        calls = self._count_lookups(frontend, monkeypatch)
        frontend.submit_columns(self._columns(seed=71))  # builds the table
        assert calls["scorer_for"] == len(frontend.gateway.registry.users())
        calls.update(scorer_for=0, latest_version=0)
        frontend.submit_columns(self._columns(seed=72))
        assert calls == {"scorer_for": 0, "latest_version": 0}
        # A publish moves the generation: exactly one rebuild over the
        # registry's users, then warm again.
        frontend.gateway.train("bg1")
        frontend.submit_columns(self._columns(seed=73))
        assert calls["scorer_for"] == len(frontend.gateway.registry.users())
        before = dict(calls)
        frontend.submit_columns(self._columns(seed=74))
        assert calls == before

    def test_replaced_scorer_for_rebuilds_the_table(self, frontend, monkeypatch):
        self._trained(frontend)
        frontend.submit_columns(self._columns(seed=78))  # builds the table
        original = AuthenticationGateway.scorer_for

        def without_bg1(gateway, user_id, version=None):
            if user_id == "bg1":
                raise KeyError(f"no model for {user_id!r}")
            return original(gateway, user_id, version)

        monkeypatch.setattr(AuthenticationGateway, "scorer_for", without_bg1)
        responses = self._assert_served_like_scorer_for(frontend, self._columns(seed=79))
        assert isinstance(responses[1], ErrorResponse)
        monkeypatch.undo()
        responses = self._assert_served_like_scorer_for(frontend, self._columns(seed=80))
        assert isinstance(responses[1], AuthenticationResponse)

    def test_drift_report_serves_the_new_version(self, frontend):
        self._trained(frontend)
        first = self._assert_served_like_scorer_for(frontend, self._columns())
        assert first[0].model_version == 1
        drift = frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.5, n=30, seed=75))
        )
        assert isinstance(drift, DriftResponse)
        after = self._assert_served_like_scorer_for(frontend, self._columns())
        assert after[0].model_version == drift.new_version == 2

    def test_rollback_serves_the_previous_version(self, frontend):
        self._trained(frontend)
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.5, n=30, seed=76))
        )
        assert self._assert_served_like_scorer_for(frontend, self._columns())[0].model_version == 2
        frontend.submit(RollbackRequest(user_id="alice"))
        assert self._assert_served_like_scorer_for(frontend, self._columns())[0].model_version == 1

    def test_use_context_flip_rebuilds_without_a_publish(self, frontend):
        self._trained(frontend)
        contextual = self._assert_served_like_scorer_for(frontend, self._columns())
        generation = frontend.gateway.registry.generation
        frontend.gateway.use_context = False
        flat = self._assert_served_like_scorer_for(frontend, self._columns())
        assert frontend.gateway.registry.generation == generation
        assert set(flat[0].result.model_contexts) == {CoarseContext.STATIONARY}
        assert contextual[0].result.model_contexts != flat[0].result.model_contexts

    def test_detector_publish_rebuilds_and_detects_with_the_new_detector(self, frontend):
        self._trained(frontend)
        gateway = frontend.gateway
        gateway.train_context_detector(
            matrix("alice", 0.0, context="stationary", seed=5).concatenate(
                matrix("alice", 4.0, context="moving", seed=6)
            )
        )
        old = gateway.detect_context_codes(self._columns(detect=True).features)
        self._assert_served_like_scorer_for(frontend, self._columns(detect=True))
        gateway.train_context_detector(
            matrix("alice", 4.0, context="stationary", seed=7).concatenate(
                matrix("alice", 0.0, context="moving", seed=8)
            )
        )
        new = gateway.detect_context_codes(self._columns(detect=True).features)
        assert not np.array_equal(old, new)
        self._assert_served_like_scorer_for(frontend, self._columns(detect=True))

    def test_pins_and_unknown_users_keep_their_typed_answers(self, frontend):
        self._trained(frontend)
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.5, n=30, seed=77))
        )
        columns = self._columns(
            users=("alice", "ghost", "alice", "bg1", "alice", "bg2"),
            versions=(1, None, None, 1, 9, None),
        )
        responses = self._assert_served_like_scorer_for(frontend, columns)
        assert [getattr(r, "model_version", None) for r in responses] == [
            1, None, 2, 1, None, 1
        ]
        assert isinstance(responses[1], ErrorResponse)
        assert isinstance(responses[4], ErrorResponse)
        # The object door answers the very same typed errors.
        requests = [
            AuthenticateRequest(
                user_id=user_id,
                features=columns.features[4 * index : 4 * index + 4],
                contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING) * 2,
                version=columns.version_for(index),
            )
            for index, user_id in enumerate(columns.user_ids)
        ]
        for index, reference in enumerate(frontend.submit_many(requests)):
            if isinstance(reference, ErrorResponse):
                assert responses[index] == reference


class TestLockStripes:
    """Users sharing a stripe never deadlock a frame or a concurrent write."""

    def _sharing_pair(self):
        from repro.service.frontend import lock_stripe

        seen = {}
        for index in range(10 * LOCK_STRIPES):
            user_id = f"striped-{index}"
            other = seen.setdefault(lock_stripe(user_id), user_id)
            if other != user_id:
                return other, user_id
        raise AssertionError("no two ids share a stripe")

    def _enroll_and_train(self, frontend, users):
        for offset, user_id in enumerate(users):
            for context in ("stationary", "moving"):
                frontend.submit(
                    EnrollRequest(
                        user_id=user_id,
                        matrix=matrix(user_id, 1.0 + offset, context=context, seed=80 + offset),
                        train=False,
                    )
                )
            frontend.gateway.train(user_id)

    def _frame(self, users, seed):
        from repro.core.scoring import encode_contexts
        from repro.service.protocol import AuthenticateColumns

        rng = np.random.default_rng(seed)
        return AuthenticateColumns(
            user_ids=tuple(users),
            features=rng.normal(1.0, 1.0, size=(2 * len(users), 5)),
            lengths=np.full(len(users), 2),
            context_codes=encode_contexts(
                (CoarseContext.STATIONARY, CoarseContext.MOVING) * len(users)
            ),
        )

    def _run(self, *targets):
        threads = [threading.Thread(target=target, daemon=True) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "deadlocked"

    def test_one_frame_takes_a_shared_stripe_once(self, frontend):
        first, second = self._sharing_pair()
        self._enroll_and_train(frontend, (first, second))
        results = []
        self._run(
            lambda: results.append(
                frontend.submit_columns(self._frame((first, second, first), seed=90))
            )
        )
        (result,) = results
        assert not result.errors
        assert result.lengths.tolist() == [2, 2, 2]
        assert not any(lock.locked() for lock in frontend._stripes)

    def test_frames_and_drift_on_a_shared_stripe_both_finish(self, frontend):
        first, second = self._sharing_pair()
        self._enroll_and_train(frontend, (first, second))
        frames, drifts = [], []

        def authenticate():
            for seed in range(20):
                frames.append(frontend.submit_columns(self._frame((first, first), seed)))

        def drift():
            for seed in range(5):
                drifts.append(
                    frontend.submit(
                        DriftReport(
                            user_id=second,
                            matrix=matrix(second, 2.0, n=30, seed=100 + seed),
                        )
                    )
                )

        self._run(authenticate, drift)
        assert len(frames) == 20 and all(not frame.errors for frame in frames)
        assert [type(response) for response in drifts] == [DriftResponse] * 5
        assert not any(lock.locked() for lock in frontend._stripes)

    def test_concurrent_frames_and_publishes_answer_consistent_versions(self, frontend):
        """More threads than cores, a short switch interval: every frame
        answer is the exact scoring of the version it reports."""
        import sys

        users = [f"stress-{index}" for index in range(4)]
        self._enroll_and_train(frontend, users)
        answers = []

        def authenticate(seed):
            for step in range(15):
                columns = self._frame(users, seed=1000 * seed + step)
                answers.append((columns, frontend.submit_columns(columns)))

        def drift(user_id):
            for seed in range(3):
                frontend.submit(
                    DriftReport(user_id=user_id, matrix=matrix(user_id, 2.0, n=30, seed=seed))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._run(
                lambda: authenticate(1),
                lambda: authenticate(2),
                lambda: authenticate(3),
                lambda: drift(users[0]),
                lambda: drift(users[2]),
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 45
        for columns, result in answers:
            assert not result.errors
            for index, response in enumerate(result.responses()):
                rows = slice(2 * index, 2 * index + 2)
                expected = frontend.gateway.scorer_for(
                    columns.user_ids[index], response.model_version
                ).score(columns.features[rows], columns.context_codes[rows])
                assert response.scores.tobytes() == expected.scores.tobytes()
                assert response.accepted.tobytes() == expected.accepted.tobytes()
