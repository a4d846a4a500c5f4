"""Serving benchmark for the SmarterYou reproduction.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md`` for the workloads
and the metrics each one reports.
"""
