"""Run benchmark workloads against the serving stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet_batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer ledger.  A run prints the host
fingerprint, one line per metric (unit, statistic, sample count) and, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in turn, each
ending with its own JSON line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload and print its metrics, ledger and result line."""
    from perfbench import ledger, workloads

    work_dir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    try:
        out = workloads.WORKLOADS[name](seed, seconds, trace, work_dir).run()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = out.layers if trace else workloads.end_to_end(out)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for metric_name, metric in metrics.items():
        print("metric " + metric.describe(metric_name))
    if trace:
        print("ledger (per request: median time in stage, median self time)")
        for line in ledger.stage_table(out):
            print(line)
        trace_path = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.jsonl"
        out.recorder.write(trace_path)
        print(f"spans: {len(out.recorder.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        for metric_name, metric in workloads.diagnostics(out).items():
            print("diagnostic " + metric.describe(metric_name))
    tally = out.tally
    if tally.kinds:
        print("failures " + json.dumps(tally.kinds, sort_keys=True))
    result = {
        "correct": tally.mismatches == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric_name: {"value": metric.value, "unit": metric.unit}
            for metric_name, metric in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "service" / "transport.py").is_file():
        print(
            f"perfbench: no serving stack under {ROOT / 'src'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import host, workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(
            f"perfbench: choose --workload from all, {', '.join(workloads.WORKLOADS)} "
            "and a positive --seconds",
            file=sys.stderr,
        )
        return 2

    print("host " + json.dumps(host.fingerprint(), sort_keys=True), flush=True)
    for name in names:
        run_one(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
