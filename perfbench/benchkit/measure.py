"""Latency summaries, memory and host facts shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys

import numpy as np

# A tail percentile is reported only where at least this many samples
# lie beyond it.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> int:
    """The highest whole percentile (at most 99) with at least
    ``TAIL_BEYOND`` of ``count`` samples beyond it; 50 when the sample
    is too small for any higher one."""
    if count <= 2 * TAIL_BEYOND:
        return 50
    return min(99, math.floor(100.0 * (1.0 - TAIL_BEYOND / count)))


def summarize(samples) -> dict:
    """Median and tail, in ms, of one pooled latency sample (seconds).

    Used where statements are drawn at random (``serve``)."""
    values = np.asarray(samples, dtype=np.float64) * 1e3
    if len(values) == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0, "samples": 0}
    pct = tail_percentile(len(values))
    return {"p50_ms": float(np.percentile(values, 50)),
            "tail_ms": float(np.percentile(values, pct)),
            "tail_pct": pct, "samples": int(len(values))}


def summarize_classes(samples_by_class: dict) -> dict:
    """Median and tail, in ms, of a closed loop cycling through statement
    classes of very different cost.

    Pooling such samples gives a multi-modal distribution whose median
    jumps between classes with the run's last few operations.  Instead
    the median is the mean of the class medians, and the tail is taken
    over the pooled samples after scaling each by its class median, then
    scaled back by the median: "how much slower than usual the slow
    operations were", in ms of an average statement."""
    classes = {name: np.asarray(values, dtype=np.float64) * 1e3
               for name, values in samples_by_class.items() if len(values)}
    if not classes:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0, "samples": 0,
                "class_p50_ms": {}}
    medians = {name: float(np.median(v)) for name, v in classes.items()}
    p50 = statistics.fmean(medians.values())
    ratios = np.concatenate([v / medians[name]
                             for name, v in classes.items()])
    pct = tail_percentile(len(ratios))
    return {"p50_ms": p50,
            "tail_ms": float(np.percentile(ratios, pct)) * p50,
            "tail_pct": pct, "samples": int(len(ratios)),
            "class_p50_ms": {name: round(m, 3)
                             for name, m in sorted(medians.items())}}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size of this process (or of ``who``), in
    MiB."""
    peak = resource.getrusage(who).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def children_peak_rss_mb() -> float:
    """Peak resident set size of the largest child process that has
    ended and been waited for, in MiB; 0 when there was none."""
    return peak_rss_mb(resource.RUSAGE_CHILDREN)


def host_fingerprint() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"cpus": os.cpu_count(), "usable_cpus": usable,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__}
