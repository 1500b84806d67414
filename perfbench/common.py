"""Helpers shared by the workloads: timing, summaries, calibration, output."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from pathlib import Path

CALIBRATION_ITERATIONS = 1_000_000


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop (machine drift, not a metric)."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def settle() -> None:
    """Collect garbage before a timed call, so every call starts alike."""
    gc.collect()


def clocked(call, *args, **kwargs):
    """``call``'s return value and its wall time in milliseconds."""
    started = time.perf_counter()
    value = call(*args, **kwargs)
    return value, (time.perf_counter() - started) * 1000.0


class Samples:
    """Per-layer samples by metric name, summarised as medians."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.values.setdefault(name, []).append(value)

    def medians(self) -> dict[str, float]:
        return {name: median(v) for name, v in self.values.items()}


def median(values: list[float]) -> float:
    return statistics.median(values)


def mean(values: list[float]) -> float:
    return statistics.fmean(values)


def tail(values: list[float]) -> str:
    """Median and sample count, plus the highest percentile with ten
    samples beyond it."""
    text = f"median {median(values):.4g}, mean {mean(values):.4g} (n={len(values)})"
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")
            return f"{text}, p{q} {cut[q - 1]:.4g}"
    return text


def peak_rss_mb() -> float:
    """This process's peak resident set in MB (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Setup:
    """Times a set-up function several times; keeps the last product.

    The median of the repeats is ``setup_s``: a single set-up of well
    under a second is too short to compare across runs on its own, and
    repeats made back to back all fall in the same phase of the machine's
    speed (see README.md), so a workload may also repeat set-up between
    its ops.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def run(self, build, repeats: int):
        product = None
        for _ in range(repeats):
            product = None  # free the previous product before rebuilding
            settle()
            started = time.perf_counter()
            product = build()
            self.seconds.append(time.perf_counter() - started)
        return product

    @property
    def median_s(self) -> float:
        return median(self.seconds)


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )
