"""Percentiles, sample counts, span self-times and failure accounting."""

import numpy as np
import pytest

from perfbench import inputs
from perfbench.stats import (
    Metric,
    Tally,
    median_metric,
    percentile,
    samples_beyond,
    self_times,
    timing,
    unattributed_fraction,
    union_length,
)
from perfbench.trace import Span
from perfbench.workloads import Outcome
from repro.core.scoring import BatchScoreResult
from repro.sensors.types import CoarseContext
from repro.service.protocol import AuthenticationResponse, ErrorResponse


def _span(sid, start, end, parent=None, rid=1, name="stage"):
    return Span(sid, name, start, parent, rid, end=end)


def test_percentile_interpolates_and_rejects_bad_input():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50.0) == 2.5
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile(values, 101.0)


def test_samples_beyond_counts_the_tail_a_percentile_rests_on():
    assert samples_beyond(100, 99.0) == 1
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(135, 90.0) == 13
    assert samples_beyond(100, 50.0) == 50


def test_timing_reports_unit_sample_count_and_statistic():
    metric = timing([0.010, 0.020, 0.030], 50.0)
    assert metric == Metric(20.0, "ms", 3, "p50")
    assert "p50 of 3 samples, 1 beyond" in metric.describe("latency_p50_ms")


def test_median_of_nothing_is_zero_from_zero_samples():
    assert median_metric([], "ms") == Metric(0.0, "ms", 0, "median")
    assert median_metric([0.001, 0.003], "ms", 1e3).value == pytest.approx(2.0)


def test_union_length_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_from_nested_spans():
    root = _span(1, 0.0, 10.0)
    first = _span(2, 1.0, 4.0, parent=1)
    inner = _span(3, 2.0, 3.0, parent=2)
    second = _span(4, 5.0, 9.0, parent=1)
    own = self_times([root, first, inner, second])
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_unattributed_fraction_is_one_minus_stage_self_times_over_end_to_end():
    root = _span(1, 0.0, 10.0)
    stages = [
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 5.0, 9.0, parent=1),
    ]
    own = self_times([root, *stages])
    expected = 1.0 - sum(own[span.sid] for span in stages) / 10.0
    assert unattributed_fraction(root, stages) == pytest.approx(expected) == pytest.approx(0.3)


def test_parallel_stages_count_once_and_stray_time_is_clipped():
    root = _span(1, 0.0, 10.0)
    stages = [
        _span(2, 1.0, 6.0, parent=1),
        _span(3, 2.0, 7.0, parent=1),  # a parallel shard exchange
        _span(4, 9.0, 12.0, parent=1),  # ends after the root
    ]
    assert unattributed_fraction(root, stages) == pytest.approx(1.0 - 7.0 / 10.0)


def test_tally_counts_each_operation_once():
    tally = Tally()
    tally.ok(3)
    tally.error("ConnectionError", 2)
    tally.mismatch()
    assert (tally.attempted, tally.errors, tally.mismatches, tally.failed) == (6, 2, 1, 3)
    assert tally.ok_fraction == pytest.approx(0.5)
    assert tally.kinds == {"ConnectionError": 2, "mismatch": 1}
    assert Tally().ok_fraction == 0.0


def _response(user, scores, accepted, version=1):
    return AuthenticationResponse(
        user_id=user,
        result=BatchScoreResult(
            scores=np.asarray(scores, dtype=float),
            accepted=np.asarray(accepted, dtype=bool),
            model_contexts=(CoarseContext.STATIONARY,) * len(scores),
            model_version=version,
        ),
    )


def test_failure_accounting_of_a_checked_batch():
    refs = [_response("a", [0.5, -0.2], [True, False]), _response("b", [1.0], [True])]
    batch = inputs.Batch(requests=[None, None], genuine=np.array([True, False]), refs=refs)

    out = Outcome()
    decided = out.check_batch(batch, [_response("a", [0.5, -0.2], [True, False]),
                                      _response("b", [1.0], [True])])
    assert decided == 3 and out.tally.failed == 0
    # owner "a": one of two windows accepted; masquerader on "b": accepted.
    assert out.correct == 1

    out = Outcome()
    nudged = _response("a", [0.5, np.nextafter(-0.2, 0.0)], [True, False])
    stale = _response("b", [1.0], [True], version=2)
    out.check_batch(batch, [nudged, stale])
    assert out.tally.mismatches == 2 and out.windows == 0

    out = Outcome()
    out.check_batch(batch, [ErrorResponse(request_kind="authenticate", error="KeyError",
                                          message="unknown"), refs[1]])
    assert out.tally.kinds == {"ErrorResponse": 1} and out.tally.attempted == 2

    out = Outcome()
    out.check_batch(batch, ConnectionError("torn socket"))
    assert out.tally.kinds == {"ConnectionError": 2} and out.tally.ok_fraction == 0.0
