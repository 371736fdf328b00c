"""Fig 6 — end-to-end prediction-query runtime on Spark.

Paper setup: 4 datasets x {LR, DT depth-8, GB 20x3}; systems = SparkML,
Spark+scikit-learn, Raven (no-opt), Raven. Headlines: Raven 1.4–13.1x over
Raven (no-opt); up to 48x over SparkML; 2.15–25.3x over Spark+SKL; MLtoSQL
fires for LR/DT, "none" for GB; projections are pushed below the 3-/4-way
joins of Expedia/Flights.

This reproduction runs the same grid at laptop scale (row counts in
``common.BENCH_ROWS``; paper scales 0.2–2B rows) with the classification
strategy picking the runtime, exactly as §7.1.1.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.bench_util import timeit_trimmed
from repro.core.optimizer import OptimizerConfig
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.experiments import common
from repro.runtime import reference_rt, spark_exec

PAPER_SPEEDUP_RANGE = (1.4, 13.1)  # Raven vs Raven (no-opt)

MODELS = ("lr", "dt", "gb")
SYSTEMS = ("sparkml", "spark_ref", "raven_noopt", "raven")

TITLE = (
    "Fig 6: prediction-query runtime on Spark (seconds; paper speedups: "
    "Raven 1.4-13.1x vs no-opt, up to 48x vs SparkML, 2.15-25.3x vs Spark+SKL)"
)
COLUMNS = {
    "dataset": "dataset", "model": "model", "rows": "n_rows", "SparkML": "sparkml",
    "Spark+ref": "spark_ref", "Raven(no-opt)": "raven_noopt", "Raven": "raven",
    "choice": "raven_choice", "x no-opt": "speedup_vs_noopt",
    "x SparkML": "speedup_vs_sparkml", "x ref": "speedup_vs_ref",
}


def _run_one(spark: SparkSession, env, kind: str, system: str, runs: int) -> tuple[float, str]:
    query = dataset_query(env.spec, common.dataset_pipeline(env.name, kind), env.tables)
    if system == "sparkml":
        from repro.baselines import sparkml

        frame = ds.joined_frame(env.name, 8000, seed=123)
        train_df = spark.createDataFrame(frame)
        hp = dict(common.MODEL_SETTINGS[kind])
        hp.pop("l1", None)
        model = sparkml.train_sparkml(spark, env.spec, train_df, kind, **hp)
        data_df = spark_exec.build_input_df(
            env.catalog, query, env.spec.input_cols
        )
        return timeit_trimmed(
            lambda: spark_exec.sink(sparkml.predict_sparkml(model, data_df)),
            runs=runs,
        ), "-"
    if system == "spark_ref":
        df = spark_exec.build_input_df(env.catalog, query, env.spec.input_cols)
        p = query.pipeline
        pred = spark_exec.with_predict_udf(df, lambda b: reference_rt.run(p, b.to_pandas()))
        return timeit_trimmed(lambda: spark_exec.sink(pred), runs=runs), "-"

    config = (
        OptimizerConfig.no_opt()
        if system == "raven_noopt"
        else OptimizerConfig(runtime="auto", strategy=common.classification_strategy(spark))
    )
    seconds, plan = common.time_plan(env, config, query, runs)
    return seconds, plan.runtime if system == "raven" else "-"


def run(spark: SparkSession, scale: float = 1.0, runs: int = 3,
        datasets=ds.DATASETS, models=MODELS) -> list[dict]:
    rows = []
    for name in datasets:
        env = common.dataset_env(spark, name, int(common.BENCH_ROWS[name] * scale))
        for kind in models:
            times = {}
            choice = "-"
            for system in SYSTEMS:
                t, ch = _run_one(spark, env, kind, system, runs)
                times[system] = t
                if system == "raven":
                    choice = ch
            rows.append(
                {
                    "dataset": name,
                    "model": kind,
                    "n_rows": env.n_rows,
                    **times,
                    "raven_choice": choice,
                    "speedup_vs_noopt": times["raven_noopt"] / times["raven"],
                    "speedup_vs_sparkml": times["sparkml"] / times["raven"],
                    "speedup_vs_ref": times["spark_ref"] / times["raven"],
                }
            )
    return rows


def check(rows: list[dict]) -> None:
    # paper shape: Raven never slower than no-opt by more than noise, and
    # at least one LR/DT query gets a clear (>1.3x) win
    assert all(r["speedup_vs_noopt"] > 0.6 for r in rows)
    assert max(
        r["speedup_vs_noopt"] for r in rows if r["model"] in ("lr", "dt")
    ) > 1.3
