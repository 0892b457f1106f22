"""CPU time and peak memory of a process and its live multiprocessing children.

The process transport moves the shard work into child processes, so the
driver's own ``process_time`` misses most of it, and ``RUSAGE_CHILDREN`` only
counts children that have already been waited for.  ``/proc`` has both while
the children are alive, which is when the measured phase ends.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import List

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def tree_pids() -> List[int]:
    """This process and its live ``multiprocessing`` children."""
    return [os.getpid()] + [child.pid for child in multiprocessing.active_children()]


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU seconds consumed so far, summed over ``pids``.
    ``/proc`` counts in clock ticks (10 ms); this process reads its own finer
    clock instead."""
    own = os.getpid()
    ticks = 0
    for pid in pids:
        if pid == own:
            continue
        with open(f"/proc/{pid}/stat") as handle:
            # The command name (field 2) may hold spaces; fields resume after ')'.
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICKS + (time.process_time() if own in pids else 0.0)


def peak_rss_mb(pids: List[int]) -> float:
    """Peak resident set (``VmHWM``) in MB, summed over ``pids``.  Pages
    shared between a parent and its forked children count once per process."""
    kilobytes = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    kilobytes += int(line.split()[1])
                    break
    return kilobytes / 1024.0
