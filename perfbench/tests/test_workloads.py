"""Every workload on a small fleet: answers check out and every probe fires.

These runs are short and small (40 users, one set-up), so they pin the
benchmark's plumbing, not its numbers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ledger, workloads

ROOT = Path(__file__).resolve().parents[2]

USERS = 40

#: Spans each workload's traced run must record, by the layer they probe.
EXPECTED_SPANS = {
    "fleet_batch": {
        "transport.client_call",
        "wirebin.encode_request",
        "wirebin.parse_request",
        "transport.dispatch_frame",
        "envelope.authorize_frame",
        "frontend.submit_columns",
        "gateway.detect_context_codes",
        "gateway.scorer_for",
        "scoring.score_stacked",
        "scoring.stacks_for",
        "wirebin.encode_response",
        "wirebin.parse_response",
        "wirebin.to_responses",
    },
    "device_stream": {
        "transport.client_call",
        "transport.client_encode",
        "transport.server_decode",
        "envelope.process",
        "frontend.queue_wait",
        "frontend.submit_many",
        "gateway.detect_context_codes",
        "gateway.scorer_for",
        "scoring.score_requests",
        "scoring.score_stacked",
        "scoring.stacks_for",
        "transport.server_encode",
        "transport.client_decode",
    },
    "drift_mix": {
        "envelope.process",
        "frontend.queue_wait",
        "frontend.submit_many",
        "gateway.report_drift",
        "gateway.train",
        "store.append",
        "ml.krr_fit",
        "registry.publish",
        "transport.dispatch_frame",
        "scoring.stacks_for",
    },
    "sharded_batch": {
        "wirebin.encode_request",
        "wirebin.parse_request",
        "cluster.route_frame",
        "cluster.split",
        "cluster.worker_exchange",
        "cluster.decode_subframe",
        "wirebin.encode_response",
        "wirebin.parse_response",
        "wirebin.to_responses",
    },
}


def _run(name, tmp_path, trace, seconds):
    workload = workloads.WORKLOADS[name](
        seed=3, seconds=seconds, trace=trace, work_dir=tmp_path / name, users=USERS, repeats=1
    )
    return workload.run()


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_traced_run_fires_every_probe_of_its_layers(name, tmp_path):
    out = _run(name, tmp_path, trace=True, seconds=1.5)
    assert out.tally.attempted > 0 and out.tally.failed == 0, out.tally.kinds
    linked = {span.name for span in out.recorder.spans if span.rid is not None}
    assert EXPECTED_SPANS[name] <= linked, EXPECTED_SPANS[name] - linked
    assert set(out.layers) == set(ledger.PER_LAYER)
    assert 0.0 <= out.layers["ledger.unattributed_fraction"].value < 1.0
    if name == "sharded_batch":
        for shard in range(ledger.WORKERS):
            assert out.layers[f"cluster.worker{shard}_request_ms"].samples > 0
    if name == "device_stream":
        assert out.layers["generator.in_flight_max"].value >= 1
        assert out.layers["frontend.requests_per_flush"].samples > 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    out = _run("fleet_batch", tmp_path, trace=False, seconds=1.0)
    metrics = workloads.end_to_end(out)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(metrics)
    for entry in declared["end_to_end"]:
        assert metrics[entry["name"]].unit == entry["unit"]
        assert metrics[entry["name"]].value > 0, entry["name"]
    assert out.tally.ok_fraction == 1.0


def test_benchmark_json_declares_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == ledger.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout
