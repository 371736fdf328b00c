"""Fig 11 — data-induced optimizations on partitioned Hospital data.

Paper: DTs of depth 10/15/20 scoring 200M rows. For depth 15/20 the
partition-specialized models save ~20% vs both no-opt and unpartitioned
Raven; for depth 10 Raven-with-partitioning wins 2.1–3.2x over no-opt and
1.3–2.1x over unpartitioned Raven. Both partitioning schemes help.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.bench_util import print_table
from repro.core.optimizer import OptimizerConfig
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.experiments import common

DEPTHS = (10, 15, 20)
SCHEMES = ("num_issues", "rcount")


def run(spark: SparkSession, n_rows: int = 200_000, runs: int = 3,
        depths=DEPTHS) -> list[dict]:
    env = common.dataset_env(spark, "hospital", n_rows)
    frame = ds.joined_frame("hospital", min(n_rows, 60_000), seed=0)
    rows = []
    for depth in depths:
        p = common.dataset_pipeline("hospital", "dt", max_depth=depth)
        rec = {"depth": depth, "n_rows": n_rows}

        base_query = dataset_query(env.spec, p, env.tables)
        rec["noopt"], _ = common.time_plan(
            env, spark, OptimizerConfig.no_opt(), base_query, runs
        )

        # Raven w/o partitioning: best-of prior optimizations
        rec["raven_nopart"], _ = common.time_plan(
            env, spark,
            OptimizerConfig(
                runtime="auto",
                strategy=common.classification_strategy(spark),
            ),
            base_query, runs,
        )

        for scheme in SCHEMES:
            q = dataset_query(env.spec, p, env.tables, partition_col=scheme)
            rec[f"raven_{scheme}"], _ = common.time_plan(
                env, spark, OptimizerConfig(enable_data_induced=True, runtime="none"),
                q, runs, partition_sample=frame,
            )
        rec["best_part_speedup"] = rec["noopt"] / min(
            rec["raven_num_issues"], rec["raven_rcount"]
        )
        rows.append(rec)
    print_table(
        "Fig 11: data-induced optimization on partitioned Hospital (seconds; "
        "paper: ~20% savings at depth 15/20; 2.1-3.2x at depth 10)",
        ["depth", "no-opt", "Raven w/o part", "Raven part(num_issues)",
         "Raven part(rcount)", "best part x no-opt"],
        [
            [r["depth"], f"{r['noopt']:.2f}", f"{r['raven_nopart']:.2f}",
             f"{r['raven_num_issues']:.2f}", f"{r['raven_rcount']:.2f}",
             f"{r['best_part_speedup']:.2f}"]
            for r in rows
        ],
    )
    return rows
