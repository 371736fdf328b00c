"""OpenML-CC18-style pipeline corpus + per-option runtime measurement.

The paper's data-driven strategies (§5.2) are trained on 138 OpenML
pipelines executed under every transformation. The benchmark suite is not
downloadable here, so this module *generates* a comparable corpus: ~120
trained pipelines whose knobs sweep the ranges Fig 1 reports (inputs
2–60, categorical fractions, one-hot cardinalities up to several hundred,
all four model families, 1–200 trees, depths 2–12), then measures each
pipeline under {none, MLtoSQL, MLtoDNN} **on this machine** — the paper's
own protocol ("users can go through this process once to fine-tune the
strategy on their workload and hardware").

Measurements are kept in the artifact cache (:mod:`repro.cache`); the
pipelines and their features are deterministic in the seed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

from repro.cache import cached
from repro.core.features import pipeline_features
from repro.core.ml2sql import compile_to_sql
from repro.ir.builder import build_pipeline_ir
from repro.ml.pipeline import fit_pipeline
from repro.runtime import onnx_rt
from repro.runtime.dnn_rt import compile_to_dnn

OPTIONS = ("none", "sql", "dnn")


@dataclass
class CorpusEntry:
    features: np.ndarray  # 22-dim statistics
    runtimes: dict[str, float]  # option -> seconds (inf if unsupported)

    @property
    def best(self) -> str:
        return min(self.runtimes, key=self.runtimes.get)


def _random_spec(rng: np.random.Generator) -> dict:
    kind = rng.choice(["lr", "dt", "rf", "gb"], p=[0.2, 0.25, 0.25, 0.3])
    n_num = int(rng.integers(2, 40))
    n_cat = int(rng.integers(0, 12))
    cards = [int(np.exp(rng.uniform(np.log(2), np.log(300)))) for _ in range(n_cat)]
    spec = {"kind": kind, "n_num": n_num, "cards": cards}
    if kind == "lr":
        spec["l1"] = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.2))))
    else:
        spec["max_depth"] = int(rng.integers(2, 13))
        spec["n_estimators"] = (
            1 if kind == "dt" else int(np.exp(rng.uniform(np.log(5), np.log(120))))
        )
    return spec


def _make_frame(spec: dict, n: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    data = {f"x{i}": rng.standard_normal(n) for i in range(spec["n_num"])}
    for j, card in enumerate(spec["cards"]):
        data[f"c{j}"] = [f"v{v}" for v in rng.integers(0, card, n)]
    pdf = pd.DataFrame(data)
    margin = sum(
        0.9**i * pdf[f"x{i}"] for i in range(min(spec["n_num"], 8))
    ) + rng.standard_normal(n) * 0.5
    if spec["cards"]:
        margin = margin + 0.8 * (pdf["c0"] == "v0")
    pdf["label"] = (margin > np.median(margin)).astype(np.int64)
    return pdf


def _measure(fn, reps: int = 2) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _corpus_pipelines(n_pipelines: int, n_rows_train: int, n_rows_eval: int,
                      seed: int):
    """Yield (ir_pipeline, eval_frame) for each corpus member."""
    rng = np.random.default_rng(seed)
    for i in range(n_pipelines):
        spec = _random_spec(rng)
        train = _make_frame(spec, n_rows_train, seed * 1000 + i)
        num_cols = [c for c in train.columns if c.startswith("x")]
        cat_cols = [c for c in train.columns if c.startswith("c")]
        hp = {k: spec[k] for k in ("l1", "max_depth", "n_estimators") if k in spec}
        if spec["kind"] in ("gb", "rf"):
            hp["max_features"] = 64  # bound corpus training cost
        tp = fit_pipeline(train, num_cols, cat_cols, "label", spec["kind"], **hp)
        p = build_pipeline_ir(tp)
        eval_pdf = _make_frame(spec, n_rows_eval, seed * 2000 + i).drop(columns="label")
        yield p, eval_pdf


def build_corpus(
    n_pipelines: int = 120, *, n_rows_train: int = 1500, n_rows_eval: int = 20_000,
    seed: int = 7,
) -> list[CorpusEntry]:
    """Corpus priced on the single-node engine paths — used by the SQL
    Server experiments. The "none" option is priced the way the engine
    actually runs it (PREDICT statement: scan + batched Arrow fetch into
    the ML runtime), not as a bare in-process NumPy call."""

    def build() -> list[CorpusEntry]:
        entries: list[CorpusEntry] = []
        for p, eval_pdf in _corpus_pipelines(n_pipelines, n_rows_train, n_rows_eval, seed):
            runtimes: dict[str, float] = {}

            def predict_statement():
                con = duckdb.connect()
                try:
                    con.register("t", eval_pdf)
                    reader = con.execute("SELECT * FROM t").fetch_record_batch(10_000)
                    for batch in reader:
                        onnx_rt.run(p, batch)
                finally:
                    con.close()

            runtimes["none"] = _measure(predict_statement)
            try:
                sqlp = compile_to_sql(p)
                con = duckdb.connect()
                try:
                    con.register("t", eval_pdf)
                    q = (
                        f"SELECT {sqlp.label_sql} AS prediction, "
                        f"{sqlp.score_sql} AS score FROM t"
                    )
                    runtimes["sql"] = _measure(lambda: con.execute(q).fetchnumpy())
                finally:
                    con.close()
            except ValueError:
                runtimes["sql"] = np.inf
            dnn = compile_to_dnn(p)
            runtimes["dnn"] = _measure(lambda: dnn.predict(eval_pdf))
            entries.append(CorpusEntry(pipeline_features(p), runtimes))
        return entries

    return cached("corpus", (n_pipelines, n_rows_train, n_rows_eval, seed), build)


def build_corpus_spark(
    spark, n_pipelines: int = 120, *, n_rows_train: int = 1500,
    n_rows_eval: int = 20_000, seed: int = 7,
) -> list[CorpusEntry]:
    """Corpus priced on the *Spark* execution paths each option actually
    takes in a prediction query (MLtoSQL as a Catalyst expression; none/
    MLtoDNN through the Arrow-vectorized PREDICT UDF) — the §5.2 principle
    that strategies are calibrated on the deployment engine."""
    from pyspark.sql import functions as F

    from repro.runtime import spark_exec

    def build() -> list[CorpusEntry]:
        entries: list[CorpusEntry] = []
        for i, (p, eval_pdf) in enumerate(
            _corpus_pipelines(n_pipelines, n_rows_train, n_rows_eval, seed)
        ):
            df = spark.createDataFrame(eval_pdf).cache()
            df.count()
            runtimes: dict[str, float] = {}

            def priced(make_df) -> float:
                # an option that crashes the engine (e.g. codegen limits on
                # giant expressions) is priced as unusable, not fatal
                try:
                    return _measure(lambda: spark_exec.sink(make_df()), reps=1)
                except Exception:
                    return np.inf

            runtimes["none"] = priced(
                lambda: spark_exec.with_predict_udf(df, p, "onnx")
            )
            model = p.model_node
            tree_nodes = (
                sum(t.n_nodes for t in model.attrs["trees"])
                if model.op == "tree_ensemble"
                else 0
            )
            if tree_nodes > 4000:
                # far past Spark's whole-stage-codegen limits: interpreted
                # giant-CASE evaluation takes minutes — price as unusable
                # instead of burning the calibration budget measuring it
                runtimes["sql"] = np.inf
            else:
                try:
                    sqlp = compile_to_sql(p)
                    runtimes["sql"] = priced(
                        lambda: df.withColumn("score", F.expr(sqlp.score_sql))
                        .withColumn("prediction", F.expr(sqlp.label_sql))
                    )
                except ValueError:
                    runtimes["sql"] = np.inf
            runtimes["dnn"] = priced(
                lambda: spark_exec.with_predict_udf(df, p, "dnn")
            )
            df.unpersist()
            if not all(np.isinf(v) for v in runtimes.values()):
                entries.append(CorpusEntry(pipeline_features(p), runtimes))
            print(f"[corpus-spark] {i + 1}/{n_pipelines} {runtimes}", flush=True)
        return entries

    return cached(
        "corpus_spark", (n_pipelines, n_rows_train, n_rows_eval, seed), build
    )


def corpus_matrices(entries: list[CorpusEntry]):
    """(X 22-dim features, y best-option index, R per-option runtimes)."""
    X = np.vstack([e.features for e in entries])
    y = np.array([OPTIONS.index(e.best) for e in entries], dtype=np.int64)
    R = np.vstack([[e.runtimes[o] for o in OPTIONS] for e in entries])
    return X, y, R
