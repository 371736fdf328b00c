"""Timing + reporting helpers shared by the experiment harnesses and benchmarks/.

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


def fmt_row(cells: list[object], widths: list[int]) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print(f"\n== {title} ==")
    print(fmt_row(header, widths))
    print(fmt_row(["-" * w for w in widths], widths))
    for r in rows:
        print(fmt_row(r, widths))
