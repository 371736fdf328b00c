"""Fig 10 + §7.2.2 "Data predicates" — decision-tree micro-experiments
(Hospital).

Paper: DT depth sweep on Hospital (200M rows). ModelProj loses leverage as
depth grows (fewer unused inputs); MLtoSQL gives 21.7x at depth 3 but
becomes a 2.3x *slowdown* at depth 20 — the motivation for data-driven
runtime selection. With an equality predicate, predicate-based pruning
saves ~8% and ModelProj another ~12% on the depth-20 tree.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.bench_util import print_table
from repro.core.optimizer import OptimizerConfig
from repro.core.predicate_pruning import Predicate
from repro.core.session import dataset_query
from repro.experiments import common

DEPTHS = (3, 5, 8, 12, 20)

RULES = ("noopt", "modelproj", "mltosql")


def run(spark: SparkSession, n_rows: int = 200_000, runs: int = 3,
        depths=DEPTHS) -> list[dict]:
    env = common.dataset_env(spark, "hospital", n_rows)
    rows = []
    for depth in depths:
        p = common.dataset_pipeline("hospital", "dt", max_depth=depth)
        query = dataset_query(env.spec, p, env.tables)
        rec = {"depth": depth, "n_rows": n_rows}
        for rule in RULES:
            rec[rule], plan = common.time_plan(
                env, spark, common.RULE_CONFIGS[rule], query, runs
            )
            if rule == "modelproj":
                rec["unused_cols"] = len(plan.removed_cols)
        rec["mltosql_speedup"] = rec["noopt"] / rec["mltosql"]
        rows.append(rec)
    print_table(
        "Fig 10: DT depth sweep on Hospital (seconds; paper: MLtoSQL 21.7x at "
        "depth 3 -> 2.3x slowdown at depth 20; ModelProj fades with depth)",
        ["depth", "unused cols", "no-opt", "ModelProj", "MLtoSQL", "MLtoSQL x"],
        [
            [r["depth"], r["unused_cols"], f"{r['noopt']:.2f}",
             f"{r['modelproj']:.2f}", f"{r['mltosql']:.2f}",
             f"{r['mltosql_speedup']:.2f}"]
            for r in rows
        ],
    )
    return rows


def run_predicate_experiment(
    spark: SparkSession, n_rows: int = 200_000, depth: int = 20, runs: int = 3
) -> dict:
    """§7.2.2 'Data predicates': equality predicate on the depth-20 tree.

    Paper: predicate-based pruning saves ~8%, ModelProj on top another ~12%.
    """
    env = common.dataset_env(spark, "hospital", n_rows)
    p = common.dataset_pipeline("hospital", "dt", max_depth=depth)
    preds = [Predicate("asthma", "=", "1")]
    query = dataset_query(env.spec, p, env.tables, where=preds)
    times = {}
    for label, config in (
        ("noopt", OptimizerConfig.no_opt()),
        ("pred_prune", OptimizerConfig(
            enable_predicate_pruning=True, enable_projection_pushdown=False,
            runtime="none",
        )),
        ("pred_prune+modelproj", OptimizerConfig(
            enable_predicate_pruning=True, enable_projection_pushdown=True,
            runtime="none",
        )),
    ):
        times[label], plan = common.time_plan(env, spark, config, query, runs)
        if label == "pred_prune+modelproj":
            times["pruned_inputs"] = len(p.input_cols) - len(plan.input_cols)
    times["save_pred"] = 1 - times["pred_prune"] / times["noopt"]
    times["save_total"] = 1 - times["pred_prune+modelproj"] / times["noopt"]
    print_table(
        "§7.2.2 data predicates (depth-20 DT, asthma='1'; paper: ~8% + ~12%)",
        ["no-opt (s)", "pred-prune (s)", "+ModelProj (s)", "save pred",
         "save total", "#inputs removed"],
        [[
            f"{times['noopt']:.2f}", f"{times['pred_prune']:.2f}",
            f"{times['pred_prune+modelproj']:.2f}",
            f"{times['save_pred']:.1%}", f"{times['save_total']:.1%}",
            times["pruned_inputs"],
        ]],
    )
    return times
