"""Percentile, error and host arithmetic for the benchmark's metrics."""

from __future__ import annotations

import math
import os
import platform
import sys
from collections.abc import Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one slow outlier cannot be the whole tail.
MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending, non-empty list."""
    if not ordered:
        raise ValueError("cannot take a percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(
    values: Sequence[float], min_beyond: int = MIN_BEYOND
) -> tuple[int, float, int]:
    """The highest whole nearest-rank percentile with ``min_beyond``
    samples above its rank.

    Returns ``(percentile, value, samples_beyond)``.  Raises
    :class:`ValueError` when there are too few samples for any
    percentile to qualify (fewer than ``min_beyond + 1``).
    """
    ordered = sorted(values)
    count = len(ordered)
    for q in range(99, 0, -1):
        rank = max(1, math.ceil(q * count / 100))
        if count - rank >= min_beyond:
            return q, float(ordered[rank - 1]), count - rank
    raise ValueError(
        f"{count} samples leave no percentile with {min_beyond} beyond it"
    )


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (the same rank rule as the tail)."""
    return nearest_rank(sorted(values), 50)


class ErrorAccumulator:
    """Running squared error of estimates, per ``(domain, target)``.

    ``nrmse`` is each target's RMSE divided by the standard deviation
    of its true values, averaged over the targets seen.
    """

    def __init__(self) -> None:
        self._sums: dict[tuple[str, str], list[float]] = {}
        self._scales: dict[tuple[str, str], float] = {}

    def add(self, key: tuple[str, str], scale: float, errors) -> None:
        """Absorb one batch of ``estimate - truth`` differences."""
        if not scale > 0:
            raise ValueError(f"target {key} has non-positive scale {scale}")
        sums = self._sums.setdefault(key, [0.0, 0])
        self._scales[key] = scale
        for error in errors:
            sums[0] += float(error) * float(error)
            sums[1] += 1

    def nrmse(self) -> float:
        ratios = [
            math.sqrt(total / count) / self._scales[key]
            for key, (total, count) in self._sums.items()
            if count
        ]
        if not ratios:
            raise ValueError("no estimates were scored")
        return sum(ratios) / len(ratios)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def host_fingerprint() -> dict:
    """The facts a same-host comparison must hold fixed."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
