"""MADlib-style in-database baseline (§7.1.2's PostgreSQL/MADlib row).

Reproduces the two properties the paper identifies as MADlib's cost
drivers, on a single-threaded engine:

1. **Materialized featurization** — MADlib "does not support pipelining of
   ML operations in most cases; instead we were forced to materialize the
   output of the featurization": we CREATE TABLE the fully featurized
   (dense, unpruned) matrix first, then score over it.
2. **No Raven optimizations** — the model is evaluated over every dense
   feature column.

The paper also hits PostgreSQL's 1,600-column table limit on Expedia and
Flights and skips them; :func:`madlib_supported` enforces the same limit.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.ml2sql import _lit, _slot_value_sql, _sum_sql, _tree_case_sql
from repro.core.query import PredictionQuery
from repro.ir.graph import Pipeline
from repro.ir.slots import Slot, model_input_slots
from repro.sqlserver.engine import EngineResult, SqlServerSim, data_select_sql

#: PostgreSQL's hard limit the paper runs into
PG_MAX_COLUMNS = 1600


def madlib_supported(p: Pipeline) -> bool:
    return p.n_model_features() <= PG_MAX_COLUMNS


def _featurize_sql(slots: list[Slot]) -> list[str]:
    return [f"{_slot_value_sql(s)} AS f{i}" for i, s in enumerate(slots)]


def _dense_model_sql(p: Pipeline) -> str:
    """Label expression over materialized dense columns f0..fN."""
    import numpy as np

    model = p.model_node
    d = p.n_model_features()
    dense = [Slot("num", source=f"f{i}") for i in range(d)]
    if model.op == "linear_classifier":
        coef = np.asarray(model.attrs["coef"], dtype=np.float64)
        terms = [f"f{i} * {_lit(coef[i])}" for i in range(d)]  # dense: no skip
        margin = _sum_sql(terms + [_lit(model.attrs["intercept"])])
        return f"CAST(({margin}) > 0.0 AS INT)"
    trees = model.attrs["trees"]
    if model.attrs["kind"] == "gb":
        parts = [_lit(model.attrs["base_score"])] + [
            f"({_tree_case_sql(t, dense, lambda n, t=t: _lit(t.value[n, 0]))})"
            for t in trees
        ]
        return f"CAST({_sum_sql(parts)} > 0.0 AS INT)"
    parts = [
        f"({_tree_case_sql(t, dense, lambda n, t=t: _lit(t.value[n, 1]))})"
        for t in trees
    ]
    return f"CAST(({_sum_sql(parts)} / {_lit(len(trees))}) > 0.5 AS INT)"


def run_madlib(
    tables: dict[str, pd.DataFrame], query: PredictionQuery, pipeline: Pipeline
) -> EngineResult:
    """Single-threaded materialize-then-score execution."""
    if not madlib_supported(pipeline):
        raise ValueError(
            f"featurized width {pipeline.n_model_features()} exceeds the "
            f"{PG_MAX_COLUMNS}-column PostgreSQL limit (paper skips these)"
        )
    slots = model_input_slots(pipeline)
    eng = SqlServerSim(tables, threads=1)
    try:
        inner = data_select_sql(query, list(pipeline.input_cols))
        feat_sql = (
            "CREATE TEMP TABLE madlib_feat AS SELECT "
            + ", ".join(_featurize_sql(slots))
            + f" FROM ({inner})"
        )
        label_sql = _dense_model_sql(pipeline)
        t0 = time.perf_counter()
        eng.con.execute(feat_sql)  # materialization counted, as in the paper
        agg = eng.con.execute(
            f"SELECT {label_sql} AS prediction, COUNT(*) AS n "
            f"FROM madlib_feat GROUP BY 1 ORDER BY 1"
        ).fetchdf()
        seconds = time.perf_counter() - t0
        eng.con.execute("DROP TABLE madlib_feat")
        return EngineResult(agg, seconds)
    finally:
        eng.close()
