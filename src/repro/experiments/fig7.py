"""Fig 7 — data scalability on Spark (Hospital; LR and GB).

Paper: Raven beats Raven (no-opt) by 1.96–4.36x for LR and 1.37–1.67x for
GB across 1M–10B rows. Reproduction sweeps laptop-scale sizes with the
same two models; the claim is the stable per-model speedup band.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.bench_util import print_table
from repro.core.optimizer import OptimizerConfig
from repro.core.session import dataset_query
from repro.experiments import common

PAPER = {"lr": (1.96, 4.36), "gb": (1.37, 1.67)}

SIZES = (25_000, 100_000, 400_000)


def run(spark: SparkSession, sizes=SIZES, runs: int = 3) -> list[dict]:
    rows = []
    for n in sizes:
        env = common.dataset_env(spark, "hospital", n)
        for kind in ("lr", "gb"):
            query = dataset_query(
                env.spec, common.dataset_pipeline("hospital", kind), env.tables
            )
            times = {}
            for label, config in (
                ("noopt", OptimizerConfig.no_opt()),
                ("raven", OptimizerConfig(
                    runtime="auto",
                    strategy=common.classification_strategy(spark),
                )),
            ):
                times[label], _ = common.time_plan(env, spark, config, query, runs)
            rows.append(
                {
                    "model": kind, "n_rows": n,
                    "noopt_s": times["noopt"], "raven_s": times["raven"],
                    "speedup": times["noopt"] / times["raven"],
                    "paper_band": PAPER[kind],
                }
            )
    print_table(
        "Fig 7: Raven vs Raven(no-opt) while scaling Hospital rows",
        ["model", "rows", "no-opt (s)", "Raven (s)", "speedup", "paper band"],
        [
            [r["model"], r["n_rows"], f"{r['noopt_s']:.2f}", f"{r['raven_s']:.2f}",
             f"{r['speedup']:.2f}", str(r["paper_band"])]
            for r in rows
        ],
    )
    return rows
