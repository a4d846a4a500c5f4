"""Host fingerprint, peak memory and CPU time of the serving processes."""

from __future__ import annotations

import os
import platform
import resource
from typing import Iterable

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def fingerprint() -> dict[str, object]:
    """Cores, CPU model, Python and NumPy: enough to tell two hosts apart."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus *pids*, in MiB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        total_kb += _status_kb(pid, "VmHWM")
    return total_kb / 1024.0


def cpu_seconds(pids: Iterable[int] = ()) -> float:
    """User + system CPU time of this process plus *pids*, in seconds."""
    times = os.times()
    total = times.user + times.system
    for pid in pids:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of proc(5); the split
        # after the command name starts at field 3.
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total
