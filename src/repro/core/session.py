"""RavenSession — the user entry point (§6).

Wraps a SparkSession plus a table catalog; detecting a PREDICT statement
(via :mod:`repro.core.parser` or a programmatic
:class:`~repro.core.query.PredictionQuery`) triggers the Raven optimizer
before execution, exactly like the paper's PostHocResolutionRule hooks the
co-optimizer into Catalyst.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.data_induced import ColumnStats
from repro.core.optimizer import OptimizerConfig, PhysicalPlan, RavenOptimizer
from repro.core.parser import parse_prediction_query
from repro.core.query import Join, PredictionQuery
from repro.data.datasets import LABEL, DatasetSpec
from repro.ir.graph import Pipeline
from repro.runtime import spark_exec


@dataclass
class RavenSession:
    """A SparkSession wrapper with a Raven co-optimizer attached."""

    spark: SparkSession
    catalog: dict[str, DataFrame]
    table_cols: dict[str, list[str]]
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    models: dict[str, Pipeline] = field(default_factory=dict)

    def register_model(self, name: str, pipeline: Pipeline) -> None:
        self.models[name] = pipeline

    # -- optimization ---------------------------------------------------
    def optimize(
        self,
        query: PredictionQuery,
        *,
        stats: ColumnStats | None = None,
        partition_sample: pd.DataFrame | None = None,
    ) -> PhysicalPlan:
        return RavenOptimizer(self.config).optimize(
            query, stats=stats, partition_sample=partition_sample
        )

    # -- execution ------------------------------------------------------
    def execute(self, query: PredictionQuery, **optimize_kw) -> DataFrame:
        plan = self.optimize(query, **optimize_kw)
        return spark_exec.execute_plan(self.catalog, plan)

    def execute_plan(self, plan: PhysicalPlan) -> DataFrame:
        return spark_exec.execute_plan(self.catalog, plan)

    def sql(self, text: str, **optimize_kw) -> DataFrame:
        """SparkSQL-with-PREDICT entry point."""
        query = parse_prediction_query(text, self.models, self.table_cols)
        return self.execute(query, **optimize_kw)


def dataset_query(
    spec: DatasetSpec,
    pipeline: Pipeline,
    tables: dict[str, pd.DataFrame],
    *,
    where=None,
    output_filter=None,
    partition_col: str | None = None,
) -> PredictionQuery:
    """Build the paper-style prediction query for one of the four datasets
    (scan or 3-/4-way star join + PREDICT)."""
    table_cols = {
        name: [c for c in pdf.columns if c != LABEL] for name, pdf in tables.items()
    }
    return PredictionQuery(
        fact=spec.fact,
        pipeline=pipeline,
        joins=[Join(j.dim_table, j.fact_key, j.dim_key) for j in spec.joins],
        where=list(where or []),
        table_cols=table_cols,
        output_filter=output_filter,
        partition_col=partition_col,
    )
