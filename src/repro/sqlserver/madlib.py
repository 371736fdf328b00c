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

from repro.core.ml2sql import _slot_value_sql, compile_model_sql
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
        # the model over the materialized columns f0..fN, zero weights kept
        dense = [Slot("num", source=f"f{i}") for i in range(len(slots))]
        model = compile_model_sql(pipeline.model_node, dense, every_coef=True)
        t0 = time.perf_counter()
        eng.con.execute(feat_sql)  # materialization counted, as in the paper
        agg = eng.con.execute(
            f"SELECT {model.label_sql} AS prediction, COUNT(*) AS n "
            f"FROM madlib_feat GROUP BY 1 ORDER BY 1"
        ).fetchdf()
        seconds = time.perf_counter() - t0
        eng.con.execute("DROP TABLE madlib_feat")
        return EngineResult(agg, seconds)
    finally:
        eng.close()
