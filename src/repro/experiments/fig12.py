"""Fig 12 — MLtoDNN on complex gradient-boosting models (Hospital).

Paper: GB with 60–500 estimators, depth 4–8, on a GPU Spark cluster
(Tesla K80s). MLtoDNN-on-GPU wins 1.56–7.96x over no-opt, growing with
model complexity; MLtoDNN-on-CPU is a slight slowdown for the small models
and 1.08–1.33x for the big ones. ModelProj is moot (all inputs used) and
MLtoSQL is detrimental.

Reproduction: no GPU exists in this container, so the GPU column is
**modeled** (repro.runtime.gpu_sim; see DESIGN.md): end-to-end GPU time =
measured end-to-end time of the same plan with a *trivial* (single-leaf)
model — i.e. the data movement + featurization + UDF overhead that stays
on the CPU — plus the modeled GPU tensor-program time for the real
ensemble. CPU columns are fully measured on Spark.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.optimizer import OptimizerConfig
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.experiments import common
from repro.runtime.dnn_rt import compile_to_dnn
from repro.runtime.gpu_sim import modeled_gpu_seconds

#: (n_estimators, max_depth) — the paper's 60..500 x 4..8 sweep
CONFIGS = ((60, 4), (150, 6), (300, 8), (500, 8))
PAPER_GPU_SPEEDUP = (1.56, 7.96)
PAPER_CPU_SPEEDUP = (0.9, 1.33)

TITLE = (
    "Fig 12: MLtoDNN on complex GB models (Hospital; GPU column MODELED — "
    "paper: GPU 1.56-7.96x, CPU ~0.9-1.33x, growing with complexity)"
)
COLUMNS = {
    "estimators": "n_estimators", "depth": "depth", "no-opt (s)": "noopt_cpu",
    "DNN-CPU (s)": "dnn_cpu", "DNN-GPU (s, modeled)": "dnn_gpu_modeled",
    "CPU x": "cpu_speedup", "GPU x (modeled)": "gpu_speedup_modeled",
}


def run(spark: SparkSession, n_rows: int = 150_000, runs: int = 3,
        configs=CONFIGS) -> list[dict]:
    env = common.dataset_env(spark, "hospital", n_rows)
    rows = []
    for n_est, depth in configs:
        p = common.dataset_pipeline(
            "hospital", "gb", n_estimators=n_est, max_depth=depth
        )
        query = dataset_query(env.spec, p, env.tables)
        t_noopt, _ = common.time_plan(env, OptimizerConfig.no_opt(), query, runs)
        t_dnn_cpu, dnn_plan = common.time_plan(env, OptimizerConfig(runtime="dnn"), query, runs)
        assert dnn_plan.runtime == "dnn"

        # CPU-resident share: the same plan with a trivial single-leaf
        # model (keeps scan + featurization + UDF machinery, removes the
        # tree tensor program); the GPU then adds the modeled tensor time.
        from repro.ir.tree import leaf_tree

        stub = p.clone()
        stub.model_node.attrs["trees"] = [leaf_tree([0.0])]
        t_overhead, _ = common.time_plan(
            env,
            OptimizerConfig(
                enable_predicate_pruning=False,
                enable_projection_pushdown=False,  # keep full featurization
                runtime="dnn",
            ),
            query.with_pipeline(stub), runs,
        )
        dnn = compile_to_dnn(p)
        gpu_tensor_total = modeled_gpu_seconds(dnn, n_rows).total_s
        t_gpu = t_overhead + gpu_tensor_total

        rows.append(
            {
                "n_estimators": n_est, "depth": depth, "n_rows": n_rows,
                "noopt_cpu": t_noopt, "dnn_cpu": t_dnn_cpu,
                "dnn_gpu_modeled": t_gpu,
                "cpu_speedup": t_noopt / t_dnn_cpu,
                "gpu_speedup_modeled": t_noopt / t_gpu,
            }
        )
    return rows


def check(rows: list[dict]) -> None:
    # paper shape: modeled-GPU speedup grows with model complexity
    assert rows[-1]["gpu_speedup_modeled"] > rows[0]["gpu_speedup_modeled"]
    assert rows[-1]["gpu_speedup_modeled"] > 1.2
