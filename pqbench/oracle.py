"""Independent answer for a prediction query.

Joins and filters the generated pandas tables itself (no Spark, no DuckDB,
no optimizer) and scores the qualifying rows with the *unoptimized*
pipeline on ``onnx_rt``. A system answer is the count of each predicted
label; it must match exactly for runtime ``none`` and within the mismatch
rates of ``tests/test_fidelity.py`` for ``sql`` (0.5%) and ``dnn`` (1%).
"""
from __future__ import annotations

import operator

import numpy as np
import pandas as pd

from repro.runtime import onnx_rt

TOLERANCE = {"none": 0.0, "sql": 0.005, "dnn": 0.01}

#: small batches: the unoptimized Expedia pipeline one-hot encodes 3,965
#: features densely, 63 MB per 2,000 rows
ORACLE_BATCH_ROWS = 2_000

_OPS = {
    "=": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def label_counts(pipeline, joined: pd.DataFrame, where, output_filter) -> tuple[dict[int, int], int]:
    """(label -> count, rows passing WHERE) for one query."""
    mask = np.ones(len(joined), dtype=bool)
    for col, op, value in where:
        mask &= _OPS[op](joined[col], value).to_numpy()
    rows = joined[mask]
    counts: dict[int, int] = {}
    for start in range(0, len(rows), ORACLE_BATCH_ROWS):
        label, _ = onnx_rt.run(pipeline, rows.iloc[start:start + ORACLE_BATCH_ROWS])
        for k, c in zip(*np.unique(label, return_counts=True)):
            counts[int(k)] = counts.get(int(k), 0) + int(c)
    if output_filter is not None:
        counts = {k: c for k, c in counts.items() if k == output_filter}
    return counts, len(rows)


def agrees(got: dict[int, int], want: dict[int, int], n_rows: int, runtime: str) -> bool:
    """Every label's count within the runtime's mismatch allowance."""
    allowed = TOLERANCE[runtime] * n_rows
    return all(
        abs(got.get(k, 0) - want.get(k, 0)) <= allowed for k in set(got) | set(want)
    )
