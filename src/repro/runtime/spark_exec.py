"""Physical execution of (optimized) prediction queries on Apache Spark.

Lowers a :class:`repro.core.optimizer.PhysicalPlan` onto the DataFrame API:
scans + equi-joins + WHERE filters are Catalyst-planned; the PREDICT step
is either

- the MLtoSQL expression (:func:`with_predict_sql`, pure Catalyst —
  Spark's optimizer then pushes the referenced columns/filters further):
  the model's one output column is selected once and the label and score
  derive from it, or
- an Arrow-vectorized ``mapInArrow`` UDF driving an ML runtime over 10k-
  row batches (:func:`with_predict_udf`) — the architecture of the
  paper's Raven Python UDF (§6), except that the model is not cached per
  process: it is pickled into every task's closure. The runtime reads
  each Arrow record batch as it arrives (string columns come as
  ``string``, or as ``large_string`` under
  ``spark.sql.execution.arrow.useLargeVarTypes``), so the model inputs
  cross the JVM/Python boundary once. The partitioned-model path splits a
  batch by Arrow filters on the partition column; the ``reference``
  runtime converts to pandas inside the mapper.

Both paths return only ``prediction`` and ``score``
(:data:`PREDICTION_SCHEMA`), never the model inputs.

Results are materialized with the ``noop`` data source (the stand-in for
the paper's "write to HDFS" measurement sink — full execution, no local
disk noise).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.ml2sql import SqlPrediction
from repro.core.optimizer import PhysicalPlan
from repro.core.predicate_pruning import Predicate
from repro.core.query import PredictionQuery
from repro.runtime import onnx_rt

#: paper §6: vectorized-UDF batch size of 10k tuples
UDF_BATCH_ROWS = 10_000


def _predicate_cond(p: Predicate):
    c = F.col(p.col)
    if p.op == "=":
        return c == F.lit(p.value)
    if p.op == "<":
        return c < F.lit(p.value)
    if p.op == "<=":
        return c <= F.lit(p.value)
    if p.op == ">":
        return c > F.lit(p.value)
    if p.op == ">=":
        return c >= F.lit(p.value)
    raise ValueError(p.op)


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
        df = df.filter(_predicate_cond(pred))
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


def with_predict_udf(
    df: DataFrame,
    pipeline,
    runtime: str = "onnx",
    partition_models=None,
    partition_col: str | None = None,
) -> DataFrame:
    """``prediction``/``score`` of every row of ``df``, through the
    vectorized Arrow UDF; the input columns are not returned."""
    if runtime == "dnn":
        from repro.runtime.dnn_rt import compile_to_dnn

        run_batch = compile_to_dnn(pipeline).predict

    elif runtime == "reference":
        from repro.runtime import reference_rt

        def run_batch(batch: pa.RecordBatch):
            return reference_rt.run(pipeline, batch.to_pandas())

    elif partition_models is not None:
        models = dict(partition_models.models)

        def run_batch(batch: pa.RecordBatch):
            label = np.zeros(batch.num_rows, dtype=np.int64)
            score = np.zeros(batch.num_rows)
            keys = batch.column(partition_col)
            for v in pc.unique(keys).drop_null().to_pylist():
                # rows with a NULL key match no partition and keep label 0
                hit = pc.fill_null(pc.equal(keys, v), False)
                rows = np.flatnonzero(hit.to_numpy(zero_copy_only=False))
                label[rows], score[rows] = onnx_rt.run(models[str(v)], batch.filter(hit))
            return label, score

    else:

        def run_batch(batch: pa.RecordBatch):
            return onnx_rt.run(pipeline, batch)

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
    select = list(plan.input_cols)
    if plan.partition_models is not None:
        extra = {
            c
            for m in plan.partition_models.models.values()
            for c in m.input_cols
        }
        extra.add(query.partition_col)
        select = sorted(set(select) | extra)
    df = build_input_df(catalog, query, select)

    if plan.runtime == "sql":
        df = with_predict_sql(df, plan.sql)
    else:
        df = with_predict_udf(
            df,
            plan.pipeline,
            runtime="dnn" if plan.runtime == "dnn" else "onnx",
            partition_models=plan.partition_models,
            partition_col=query.partition_col,
        )

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
