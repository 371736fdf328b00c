"""Timing and table printing for the experiment harnesses.

The paper reports "the trimmed mean of the execution time of five runs,
removing the lowest and highest runtimes". :func:`timeit_trimmed`
implements exactly that protocol (configurable run count for the heavier
sweeps; with 3 runs the trimmed mean degenerates to the median, which we
note in EXPERIMENTS.md).
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np


def timeit_trimmed(fn: Callable[[], object], runs: int = 5, warmup: int = 1) -> float:
    """Trimmed-mean wall time of ``fn()`` in seconds."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times = sorted(times)
    if len(times) >= 3:
        times = times[1:-1]
    return float(np.mean(times))


def _cell(v: object) -> str:
    if isinstance(v, (float, np.floating)):
        return "-" if np.isnan(v) else f"{v:.2f}"
    return str(v)


def print_table(title: str, columns: dict[str, str], rows: list[dict]) -> None:
    """Print ``rows`` under ``title``, one column per ``header: key`` of
    ``columns``; floats to 2 decimals, NaN as ``-``."""
    lines = [list(columns)] + [[_cell(r[k]) for k in columns.values()] for r in rows]
    widths = [max(map(len, col)) for col in zip(*lines)]
    lines.insert(1, ["-" * w for w in widths])
    print(f"\n== {title} ==")
    for cells in lines:
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
