"""The benchmark's metric catalog and its layer predictions.

Each per-layer metric names the public function whose calls it times or
counts, and the end-to-end metric (on which workload) that a change to that
layer is expected to move. ``BENCHMARK.json`` lists the same names; this
file keeps the predictions, which that file has no place for.

Time metrics are the median, over the traced queries that called the layer,
of the layer's time in that query. Count metrics are the mean per traced
query; the per-class variants (``<metric>.<model>_<runtime>``) restrict the
mean to one query class and repeat exactly for repeated query texts.
"""
from __future__ import annotations

MODELS = ("lr", "dt", "gb")
RUNTIMES = ("none", "sql", "dnn")

#: name -> (unit, better)
END_TO_END = {
    "query_p50_s": ("s", "lower"),
    "query_tail_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, layer, prediction)
LAYERS = {
    "parser.parse_ms": (
        "ms", "core.parser.parse_prediction_query",
        "query_p50_s on spark-adhoc; no change on duckdb-star (ms against 0.05-1 s queries)"),
    "optimizer.optimize_ms": (
        "ms", "core.optimizer.RavenOptimizer.optimize",
        "query_p50_s on spark-adhoc; no change on duckdb-star"),
    "predicate_pruning.ms": (
        "ms", "core.predicate_pruning.apply_predicate_pruning",
        "via ml2sql.sql_bytes -> spark_exec.plan_ms -> query_p50_s on spark-adhoc (sql)"),
    "predicate_pruning.nodes_removed": (
        "count", "core.predicate_pruning.apply_predicate_pruning", "as predicate_pruning.ms"),
    "output_pruning.ms": (
        "ms", "core.predicate_pruning.apply_output_predicate_pruning", "as predicate_pruning.ms"),
    "output_pruning.nodes_removed": (
        "count", "core.predicate_pruning.apply_output_predicate_pruning", "as predicate_pruning.ms"),
    "data_induced.ms": (
        "ms", "core.data_induced.apply_data_induced_pruning", "query_p50_s on spark-adhoc"),
    "data_induced.nodes_removed": (
        "count", "core.data_induced.apply_data_induced_pruning", "query_p50_s on spark-adhoc"),
    "projection_pushdown.ms": (
        "ms", "core.projection_pushdown.apply_projection_pushdown",
        "via spark_exec.input_s, spark_exec.arrow_hop_s and sqlserver.input_s -> rows_per_s on spark-adhoc (none, dnn) and duckdb-star"),
    "projection_pushdown.cols_removed": (
        "count", "core.projection_pushdown.apply_projection_pushdown", "as projection_pushdown.ms"),
    "join_elimination.joins_removed": (
        "count", "PhysicalPlan.eliminated_joins", "rows_per_s on duckdb-star (spark-adhoc has no join)"),
    "ml2sql.compile_ms": (
        "ms", "core.ml2sql.compile_to_sql",
        "spark_exec.plan_ms on spark-adhoc (sql); sqlserver.plan_ms on duckdb-star (sql)"),
    "ml2sql.sql_bytes": (
        "bytes", "core.ml2sql.compile_to_sql (label + score SQL)", "as ml2sql.compile_ms"),
    "spark_exec.plan_ms": (
        "ms", "queryExecution().executedPlan() of execute_plan's DataFrame",
        "query_p50_s on spark-adhoc"),
    "spark_exec.input_s": (
        "s", "noop sink of spark_exec.build_input_df alone (scan + join + filter)",
        "rows_per_s on spark-adhoc"),
    "spark_exec.arrow_hop_s": (
        "s", "sink of the input through an identity mapInPandas, minus input_s",
        "rows_per_s on spark-adhoc (none, dnn); zero for its sql queries"),
    "spark_exec.predict_s": (
        "s", "full query sink minus the identity-hop sink (minus input_s for runtime sql)",
        "rows_per_s on spark-adhoc (none, dnn)"),
    "onnx_rt.batch_ms": (
        "ms", "runtime.onnx_rt.run on a 10k-row batch (featurize + kernel)",
        "spark-adhoc (none) and duckdb-star (none)"),
    "dnn_rt.compile_ms": ("ms", "runtime.dnn_rt.compile_to_dnn", "spark-adhoc (dnn)"),
    "dnn_rt.batch_ms": ("ms", "runtime.dnn_rt.DnnModel.predict per 10k rows", "spark-adhoc (dnn)"),
    "sqlserver.plan_ms": (
        "ms", "the run_raven_sql statement with LIMIT 0", "query_p50_s on duckdb-star (sql)"),
    "sqlserver.input_s": (
        "s", "sqlserver.engine.data_select_sql drained as 10k-row record batches",
        "rows_per_s on duckdb-star"),
    "sqlserver.predict_s": (
        "s", "run_raven_sql / run_raven_predict minus input_s", "duckdb-star"),
    "setup.engine_start_s": ("s", "imports + SparkSession start (DuckDB: imports)", "setup_s on all workloads"),
    "setup.generate_s": (
        "s", "data.datasets.generate (spark-adhoc: plus placing its split-boundary rows)",
        "setup_s on all workloads"),
    "setup.load_s": (
        "s", "Spark createDataFrame + cache() + count(); DuckDB SqlServerSim (CREATE TABLE)",
        "setup_s on all workloads"),
    "setup.model_load_s": (
        "s", "model cache load + ir.builder (experiments.common.dataset_pipeline)",
        "setup_s on all workloads"),
    "setup.stats_s": ("s", "core.data_induced.collect_stats_pandas", "setup_s on spark-adhoc"),
    "ml.train_s": (
        "s", "data.datasets.train_pipeline_for on a cache miss (all six pipelines)",
        "no gated metric; shows work moved into training"),
    "trace.overhead_frac": ("ratio", "traced vs untraced query time", "none"),
}
for _m in MODELS:
    LAYERS[f"paper.speedup_vs_noopt.{_m}"] = (
        "ratio", "same query texts under OptimizerConfig.no_opt() vs Raven",
        "none (the Fig 6 / Fig 8 ratio; not gated)")

#: count metrics that are also reported per query class, with the runtimes
#: whose queries call the layer on some workload (MLtoSQL runs only for
#: runtime sql; only duckdb-star has joins, and it runs none and sql)
PER_CLASS_COUNTS = {
    "predicate_pruning.nodes_removed": RUNTIMES,
    "output_pruning.nodes_removed": RUNTIMES,
    "data_induced.nodes_removed": RUNTIMES,
    "projection_pushdown.cols_removed": RUNTIMES,
    "join_elimination.joins_removed": ("none", "sql"),
    "ml2sql.sql_bytes": ("sql",),
}


def per_class(name: str) -> list[str]:
    """The query classes ``name`` is reported for."""
    return [f"{m}_{r}" for m in MODELS for r in PER_CLASS_COUNTS[name]]


for _name in PER_CLASS_COUNTS:
    for _cls in per_class(_name):
        LAYERS[f"{_name}.{_cls}"] = (
            LAYERS[_name][0], LAYERS[_name][1], f"count for query class {_cls}")
