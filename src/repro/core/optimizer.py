"""The Raven optimizer (§4 + §5): logical passes, then runtime selection.

Pass order follows §5.2 exactly:

1. predicate-based model pruning (before projection pushdown — "the former
   can enable further application of the latter"),
2. output-predicate pruning,
3. data-induced pruning (global statistics or per-partition models),
4. model-projection pushdown,
5. join elimination on the relational side,
6. logical-to-physical runtime selection via the configured strategy
   (MLtoSQL / MLtoDNN / none).

:meth:`PhysicalPlan.scorer` is the one place a plan that keeps an ML
runtime becomes the batch scorer both engines call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.data_induced import (
    ColumnStats,
    PartitionedModels,
    apply_data_induced_pruning,
    compile_partitioned_models,
)
from repro.core.ml2sql import SqlPrediction, compile_to_sql
from repro.core.predicate_pruning import (
    apply_output_predicate_pruning,
    apply_predicate_pruning,
)
from repro.core.projection_pushdown import apply_projection_pushdown
from repro.core.query import Join, PredictionQuery
from repro.ir.graph import Pipeline
from repro.runtime import dnn_rt, onnx_rt

RUNTIME_CHOICES = ("none", "sql", "dnn")


@dataclass
class OptimizerConfig:
    enable_predicate_pruning: bool = True
    enable_projection_pushdown: bool = True
    enable_data_induced: bool = False
    #: "auto" delegates to ``strategy``; or force "none"/"sql"/"dnn"
    runtime: str = "auto"
    strategy: object | None = None  # .choose(pipeline) -> runtime choice

    @classmethod
    def no_opt(cls) -> "OptimizerConfig":
        return cls(False, False, False, runtime="none")


@dataclass
class PhysicalPlan:
    query: PredictionQuery  # rewritten relational side
    pipeline: Pipeline  # rewritten ML side
    runtime: str  # "none" (ML runtime) | "sql" | "dnn"
    sql: SqlPrediction | None = None
    partition_models: PartitionedModels | None = None
    # diagnostics for harnesses / EXPERIMENTS.md
    removed_cols: list[str] = field(default_factory=list)
    pruned_tree_nodes: int = 0
    eliminated_joins: list[str] = field(default_factory=list)

    @property
    def input_cols(self) -> list[str]:
        """The columns the plan scores from: the pipeline's inputs, and with
        partition models their inputs and partition key as well."""
        if self.partition_models is None:
            return self.pipeline.input_cols
        return sorted(set(self.pipeline.input_cols) | set(self.partition_models.input_cols))

    def scorer(self):
        """``batch -> (label, score)`` for a ``"none"`` or ``"dnn"`` plan:
        the ML runtime or MLtoDNN's tensor runtime over the pipeline, or
        over each partition's model when the plan has them (the pipeline
        then scores rows of no known partition). Models compile here."""
        assert self.runtime in ("none", "dnn"), self.runtime
        if self.runtime == "dnn":
            def compile(p):  # through the module: a wrapper on it sees each compile
                return dnn_rt.compile_to_dnn(p).predict
        else:
            def compile(p):
                return partial(onnx_rt.run, p)
        run = compile(self.pipeline)
        if self.partition_models is None:
            return run
        return self.partition_models.scorer(compile, fallback=run)


class RavenOptimizer:
    """Co-optimizer invoked when a PREDICT statement is detected (§6)."""

    def __init__(self, config: OptimizerConfig | None = None):
        self.config = config or OptimizerConfig()

    def optimize(
        self,
        query: PredictionQuery,
        *,
        stats: ColumnStats | None = None,
        partition_sample=None,
    ) -> PhysicalPlan:
        cfg = self.config
        p = query.pipeline
        removed: list[str] = []
        pruned_nodes = 0

        # -- logical: always-beneficial cross-optimizations -------------
        if cfg.enable_predicate_pruning and query.where:
            res = apply_predicate_pruning(p, query.where)
            p = res.pipeline
            pruned_nodes += res.pruned_nodes
        if cfg.enable_predicate_pruning and query.output_filter is not None:
            p = apply_output_predicate_pruning(p, query.output_filter[1])

        partition_models = None
        if cfg.enable_data_induced and query.partition_col and partition_sample is not None:
            partition_models = compile_partitioned_models(
                p, partition_sample, query.partition_col
            )
        elif cfg.enable_data_induced and stats is not None:
            res = apply_data_induced_pruning(p, stats)
            p = res.pipeline
            pruned_nodes += res.pruned_nodes

        if cfg.enable_projection_pushdown:
            res = apply_projection_pushdown(p)
            p = res.pipeline
            removed = res.removed_cols

        # -- relational: join elimination after column pruning -----------
        needed = set(p.input_cols) | query.predicate_cols()
        if partition_models is not None:
            # execution feeds the partition models' inputs and their key too
            needed |= set(partition_models.input_cols)
        kept_joins: list[Join] = []
        eliminated: list[str] = []
        for j in query.joins:
            dim_cols = set(query.table_cols.get(j.dim_table, []))
            if j.fk_integrity and not (dim_cols - {j.dim_key}) & needed:
                eliminated.append(j.dim_table)
            else:
                kept_joins.append(j)
        new_query = PredictionQuery(
            fact=query.fact,
            pipeline=p,
            joins=kept_joins,
            where=list(query.where),
            table_cols=query.table_cols,
            output_filter=query.output_filter,
            partition_col=query.partition_col,
        )

        # -- logical-to-physical: runtime selection (§5.2) ----------------
        runtime = cfg.runtime
        if runtime == "auto":
            runtime = (
                self.config.strategy.choose(p)
                if self.config.strategy is not None
                else "none"
            )
        assert runtime in RUNTIME_CHOICES, runtime

        sql = None
        if runtime == "sql" and partition_models is None:
            try:
                sql = compile_to_sql(p)
            except ValueError:
                runtime = "none"  # MLtoSQL "translates whole pipeline or fails"
        elif runtime == "sql":
            runtime = "none"  # per-partition SQL compilation not modeled

        return PhysicalPlan(
            query=new_query,
            pipeline=p,
            runtime=runtime,
            sql=sql,
            partition_models=partition_models,
            removed_cols=removed,
            pruned_tree_nodes=pruned_nodes,
            eliminated_joins=eliminated,
        )
