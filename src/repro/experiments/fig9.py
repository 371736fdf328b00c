"""Fig 9 — LR sparsity micro-experiment (Credit Card).

Paper: LR on Credit Card (200M rows) sweeping L1 strength; x-axis is the
sklearn-style α (lower α = stronger regularization = more zero weights out
of 28). ModelProj alone falls to ~20% of baseline at the sparsest setting
and approaches/exceeds baseline at the densest; MLtoSQL alone is a flat
~60% of baseline; ModelProj+MLtoSQL is best everywhere.

Reproduction: same sweep with our direct L1 penalty λ mapped through a
calibrated table (so the zero-weight counts span the paper's high-to-low
sparsity range), comparing {no-opt, ModelProj, MLtoSQL,
ModelProj+MLtoSQL} on Spark.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.bench_util import print_table
from repro.core.session import dataset_query
from repro.experiments import common

ALPHAS = (0.001, 0.01, 0.1, 1.0, 2.0)

RULES = ("noopt", "modelproj", "mltosql", "modelproj+mltosql")

#: calibrated on the Credit Card training frame: zero-weight counts of
#: roughly 24/20/15/8/2 out of 28, spanning the paper's sparsity sweep
_L1_FOR_ALPHA = {0.001: 0.12, 0.01: 0.05, 0.1: 0.02, 1.0: 0.005, 2.0: 0.002}


def _l1_for_alpha(alpha: float) -> float:
    return _L1_FOR_ALPHA[alpha]


def run(spark: SparkSession, n_rows: int = 200_000, runs: int = 3) -> list[dict]:
    env = common.dataset_env(spark, "creditcard", n_rows)
    rows = []
    for alpha in ALPHAS:
        p = common.dataset_pipeline("creditcard", "lr", l1=_l1_for_alpha(alpha))
        zero_w = int(np.sum(np.asarray(p.model_node.attrs["coef"]) == 0.0))
        query = dataset_query(env.spec, p, env.tables)
        rec = {"alpha": alpha, "zero_weights": zero_w, "n_rows": n_rows}
        for rule in RULES:
            rec[rule], _ = common.time_plan(env, spark, common.RULE_CONFIGS[rule], query, runs)
        rec["best"] = min(RULES, key=lambda r: rec[r])
        rows.append(rec)
    print_table(
        "Fig 9: LR regularization sweep on Credit Card (seconds; paper: "
        "ModelProj+MLtoSQL best everywhere; ModelProj 20%..100%+ of baseline; "
        "MLtoSQL ~60% flat)",
        ["alpha", "#zero weights /28", "no-opt", "ModelProj", "MLtoSQL",
         "ModelProj+MLtoSQL", "best"],
        [
            [
                r["alpha"], r["zero_weights"], f"{r['noopt']:.2f}",
                f"{r['modelproj']:.2f}", f"{r['mltosql']:.2f}",
                f"{r['modelproj+mltosql']:.2f}", r["best"],
            ]
            for r in rows
        ],
    )
    return rows
