"""Single-node columnar engine — the "SQL Server" of this reproduction.

DuckDB plays SQL Server's role from §7.1.2: a single-node vectorized
columnstore engine with a configurable degree of parallelism
(``SET threads`` ~ DOP). Two execution paths:

- :meth:`SqlServerSim.run_predict_statement` — the *un-optimized* baseline:
  the relational part runs as SQL, and its 10k-row Arrow record batches
  go straight into the ML runtime (our ONNX-Runtime substitute, which
  reads Arrow; no pandas conversion), mirroring SQL Server's PREDICT that
  invokes ONNX Runtime per batch.
- :meth:`SqlServerSim.run_raven_sql` — Raven's output: the whole optimized
  prediction query (including the MLtoSQL-translated model) as one SQL
  statement the engine plans end-to-end.

WHERE constants are written by :func:`repro.core.ml2sql._lit`: strings
with quotes doubled, numbers in E-notation, which DuckDB parses as the
exact DOUBLE (a plain decimal literal parses as DECIMAL and can land one
ulp off after the cast, moving rows that sit on the constant).

Per the paper's protocol, prediction queries on this engine end in an
aggregate over the predictions (``GROUP BY prediction``), so timings don't
measure result shipping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

from repro.core.ml2sql import _lit
from repro.core.optimizer import PhysicalPlan
from repro.core.predicate_pruning import Predicate
from repro.core.query import PredictionQuery
from repro.ir.graph import Pipeline
from repro.runtime import onnx_rt

PREDICT_BATCH_ROWS = 10_000


def _pred_sql(p: Predicate) -> str:
    return f"{p.col} {p.op} {_lit(p.value)}"


def data_select_sql(query: PredictionQuery, cols: list[str]) -> str:
    """Relational part of the prediction query as a SQL string."""
    sql = f"SELECT {', '.join(cols)} FROM {query.fact}"
    for j in query.joins:
        sql += (
            f" JOIN {j.dim_table} ON {query.fact}.{j.fact_key} = "
            f"{j.dim_table}.{j.dim_key}"
        )
    if query.where:
        sql += " WHERE " + " AND ".join(_pred_sql(p) for p in query.where)
    return sql


@dataclass
class EngineResult:
    agg: pd.DataFrame  # prediction -> count
    seconds: float


class SqlServerSim:
    """DuckDB-backed engine; ``threads`` models the paper's DOP1/DOP16."""

    def __init__(self, tables: dict[str, pd.DataFrame], threads: int = 16):
        self.con = duckdb.connect()
        self.con.execute(f"SET threads TO {threads}")
        for name, pdf in tables.items():
            # materialize into native columnar storage (clustered
            # columnstore stand-in) rather than scanning pandas views
            self.con.register(f"_src_{name}", pdf)
            self.con.execute(f"CREATE TABLE {name} AS SELECT * FROM _src_{name}")
            self.con.unregister(f"_src_{name}")

    def close(self) -> None:
        self.con.close()

    # -- un-optimized PREDICT path --------------------------------------
    def run_predict_statement(
        self, query: PredictionQuery, pipeline: Pipeline
    ) -> EngineResult:
        cols = list(pipeline.input_cols)
        sql = data_select_sql(query, cols)
        t0 = time.perf_counter()
        reader = self.con.execute(sql).fetch_record_batch(PREDICT_BATCH_ROWS)
        counts: dict[int, int] = {}
        for batch in reader:
            label, _ = onnx_rt.run(pipeline, batch)
            if query.output_filter is not None:
                label = label[label == int(query.output_filter[1])]
            for k, c in zip(*np.unique(label, return_counts=True)):
                counts[int(k)] = counts.get(int(k), 0) + int(c)
        seconds = time.perf_counter() - t0
        agg = pd.DataFrame(
            {"prediction": list(counts), "n": list(counts.values())}
        ).sort_values("prediction").reset_index(drop=True)
        return EngineResult(agg, seconds)

    # -- Raven-optimized single-statement path --------------------------
    def run_raven_sql(self, plan: PhysicalPlan) -> EngineResult:
        assert plan.runtime == "sql" and plan.sql is not None
        inner = data_select_sql(plan.query, list(plan.input_cols))
        sql = (
            f"SELECT {plan.sql.label_sql} AS prediction, COUNT(*) AS n "
            f"FROM ({inner}) GROUP BY 1 ORDER BY 1"
        )
        if plan.query.output_filter is not None:
            val = int(plan.query.output_filter[1])
            sql = (
                f"SELECT prediction, n FROM ({sql}) WHERE prediction = {val}"
            )
        t0 = time.perf_counter()
        agg = self.con.execute(sql).fetchdf()
        return EngineResult(agg, time.perf_counter() - t0)

    # -- Raven plan that still needs the ML runtime ---------------------
    def run_raven_predict(
        self, plan: PhysicalPlan
    ) -> EngineResult:
        """Raven logical opts applied, runtime = ML (column-pruned scan)."""
        return self.run_predict_statement(plan.query, plan.pipeline)
