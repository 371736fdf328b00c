"""Physical execution of (optimized) prediction queries on Apache Spark.

Lowers a :class:`repro.core.optimizer.PhysicalPlan` onto the DataFrame API:
scans + equi-joins + WHERE filters are Catalyst-planned, each WHERE
conjunct from the SQL text DuckDB runs (:func:`repro.core.ml2sql._pred_sql`);
the PREDICT step is either

- the MLtoSQL expression (:func:`with_predict_sql`, pure Catalyst —
  Spark's optimizer then pushes the referenced columns/filters further):
  the model's one output column is selected once and the label and score
  derive from it, or
- an Arrow-vectorized ``mapInArrow`` UDF driving a batch scorer over 10k-
  row batches (:func:`with_predict_udf`) — the architecture of the
  paper's Raven Python UDF (§6), except that the scorer is not cached per
  process: it is pickled into every task's closure. The scorer is the
  plan's own (:meth:`~repro.core.optimizer.PhysicalPlan.scorer`): the ML
  runtime or MLtoDNN's tensor runtime, per partition when the plan holds
  partition models (§4.2). It reads each Arrow record batch as it arrives
  (string columns come as ``string``, or as ``large_string`` under
  ``spark.sql.execution.arrow.useLargeVarTypes``), so the model inputs
  cross the JVM/Python boundary once.

Both paths return only ``prediction`` and ``score``
(:data:`PREDICTION_SCHEMA`), never the model inputs.

Results are materialized with the ``noop`` data source (the stand-in for
the paper's "write to HDFS" measurement sink — full execution, no local
disk noise).
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.ml2sql import SqlPrediction, _pred_sql
from repro.core.optimizer import PhysicalPlan
from repro.core.query import PredictionQuery


def build_input_df(
    catalog: dict[str, DataFrame], query: PredictionQuery, select_cols: list[str]
) -> DataFrame:
    """Joins + filters + projection of the model's input columns."""
    df = catalog[query.fact]
    for j in query.joins:
        dim = catalog[j.dim_table]
        if j.fact_key == j.dim_key:
            df = df.join(dim, on=j.fact_key, how="inner")
        else:
            df = df.join(dim, on=df[j.fact_key] == dim[j.dim_key], how="inner")
    for pred in query.where:
        df = df.filter(F.expr(_pred_sql(pred)))
    if not select_cols:
        # fully-pruned pipeline (e.g. an all-zero L1 model): keep a
        # constant column so Arrow batches are well-formed
        return df.select(F.lit(1).alias("_one"))
    return df.select(*select_cols)


#: the output of both PREDICT paths: the predictions alone, never the
#: model inputs
PREDICTION_SCHEMA = "prediction long, score double"


def with_predict_sql(df: DataFrame, sql: SqlPrediction) -> DataFrame:
    """``prediction``/``score`` of every row of ``df``, through the MLtoSQL
    expression: the model's output is selected once, as ``_out``, and the
    label and score derive from that column."""
    out = df.select(F.expr(sql.output_sql).alias("_out"))
    return out.select(
        F.expr(sql.label("_out")).cast("long").alias("prediction"),
        F.expr(sql.score("_out")).alias("score"),
    )


def with_predict_udf(df: DataFrame, run_batch) -> DataFrame:
    """``prediction``/``score`` of every row of ``df``, through the
    vectorized Arrow UDF scoring each record batch with ``run_batch(batch)
    -> (label, score)``; the input columns are not returned."""

    def mapper(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for batch in batches:
            label, score = run_batch(batch)
            # typed as PREDICTION_SCHEMA: mapInArrow does not cast (the
            # tensor runtime's linear scores are float32)
            yield pa.RecordBatch.from_arrays(
                [pa.array(label, pa.int64()), pa.array(score, pa.float64())],
                names=["prediction", "score"],
            )

    return df.mapInArrow(mapper, schema=PREDICTION_SCHEMA)


def execute_plan(catalog: dict[str, DataFrame], plan: PhysicalPlan) -> DataFrame:
    """Full query: data plan -> PREDICT -> output filter."""
    query = plan.query
    df = build_input_df(catalog, query, plan.input_cols)
    if plan.runtime == "sql":
        df = with_predict_sql(df, plan.sql)
    else:
        df = with_predict_udf(df, plan.scorer())
    if query.output_filter is not None:
        col, val = query.output_filter
        df = df.filter(F.col(col) == F.lit(int(val)))
    return df


def sink(df: DataFrame) -> None:
    """Fully execute a query without materializing results locally."""
    df.write.format("noop").mode("overwrite").save()


def register_pandas_tables(
    spark: SparkSession, tables: dict[str, pd.DataFrame], repartition: int | None = None
) -> dict[str, DataFrame]:
    """pandas -> cached Spark DataFrames (benchmarks pre-cache inputs so
    timings measure the query, not the driver-side upload)."""
    out = {}
    for name, pdf in tables.items():
        df = spark.createDataFrame(pdf)
        if repartition:
            df = df.repartition(repartition)
        out[name] = df
    return out
