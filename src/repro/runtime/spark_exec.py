"""Physical execution of (optimized) prediction queries on Apache Spark.

Lowers a :class:`repro.core.optimizer.PhysicalPlan` onto the DataFrame API:
scans + equi-joins + WHERE filters are Catalyst-planned; the PREDICT step
is either

- a generated SQL expression (MLtoSQL path, pure Catalyst — Spark's
  optimizer then pushes the referenced columns/filters further), or
- an Arrow-vectorized ``mapInPandas`` UDF driving an ML runtime over 10k-
  row batches — the architecture of the paper's Raven Python UDF (§6),
  except that the model is not cached per process: it is pickled into
  every task's closure.

Results are materialized with the ``noop`` data source (the stand-in for
the paper's "write to HDFS" measurement sink — full execution, no local
disk noise).
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.optimizer import PhysicalPlan
from repro.core.predicate_pruning import Predicate
from repro.core.query import PredictionQuery

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


def _prediction_schema(df: DataFrame) -> T.StructType:
    return T.StructType(
        list(df.schema.fields)
        + [
            T.StructField("prediction", T.LongType()),
            T.StructField("score", T.DoubleType()),
        ]
    )


def with_predict_udf(
    df: DataFrame,
    pipeline,
    runtime: str = "onnx",
    partition_models=None,
    partition_col: str | None = None,
) -> DataFrame:
    """Attach prediction/score columns through the vectorized UDF."""
    if runtime == "dnn":
        from repro.runtime.dnn_rt import compile_to_dnn

        dnn = compile_to_dnn(pipeline)

        def run_batch(pdf: pd.DataFrame):
            return dnn.predict(pdf)

    elif runtime == "reference":
        from repro.runtime import reference_rt

        def run_batch(pdf: pd.DataFrame):
            return reference_rt.run(pipeline, pdf)

    else:
        from repro.runtime import onnx_rt

        if partition_models is not None:
            models = {v: m for v, m in partition_models.models.items()}

            def run_batch(pdf: pd.DataFrame):
                import numpy as np

                label = pd.Series(0, index=pdf.index, dtype="int64")
                score = pd.Series(0.0, index=pdf.index)
                for v, part in pdf.groupby(partition_col, sort=False):
                    m = models[str(v)]
                    l, s = onnx_rt.run(m, part)
                    label.loc[part.index] = l
                    score.loc[part.index] = s
                return label.to_numpy(), score.to_numpy()

        else:

            def run_batch(pdf: pd.DataFrame):
                return onnx_rt.run(pipeline, pdf)

    def mapper(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            label, score = run_batch(pdf)
            out = pdf.copy()
            out["prediction"] = label
            out["score"] = score
            yield out

    return df.mapInPandas(mapper, schema=_prediction_schema(df))


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
        df = df.withColumn("score", F.expr(plan.sql.score_sql)).withColumn(
            "prediction", F.expr(plan.sql.label_sql).cast("long")
        )
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
