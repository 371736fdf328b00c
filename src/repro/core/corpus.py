"""OpenML-CC18-style pipeline corpus + per-option runtime measurement.

The paper's data-driven strategies (§5.2) are trained on 138 OpenML
pipelines executed under every transformation. The benchmark suite is not
downloadable here, so this module *generates* a comparable corpus: ~120
trained pipelines whose knobs sweep the ranges Fig 1 reports (inputs
2–60, categorical fractions, one-hot cardinalities up to several hundred,
all four model families, 1–200 trees, depths 2–12), then measures each
pipeline under {none, MLtoSQL, MLtoDNN} **on its deployment engine** — the paper's
own protocol ("users can go through this process once to fine-tune the
strategy on their workload and hardware").

Measurements are kept in the artifact cache (:mod:`repro.cache`); the
pipelines and their features are deterministic in the seed.
"""
from __future__ import annotations

import os
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from py4j.protocol import Py4JJavaError

from repro.cache import cached
from repro.core.features import pipeline_features
from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.predicate_pruning import tree_ensemble_size
from repro.core.query import PredictionQuery
from repro.ir.builder import build_pipeline_ir
from repro.ml.pipeline import fit_pipeline
from repro.runtime import spark_exec
from repro.sqlserver.engine import EngineError, SqlServerSim

OPTIONS = ("none", "sql", "dnn")

#: MLtoSQL over a larger tree ensemble is priced ``inf`` unrun: Spark runs it
#: interpreted for minutes, and on DuckDB it was never the best option (0.6-5.9
#: s against under 0.07 s for the best, on 5k rows).
SQL_MAX_TREE_NODES = 4000


@dataclass
class CorpusEntry:
    features: np.ndarray  # 22-dim statistics
    runtimes: dict[str, float]  # option -> seconds (inf if unpriced)
    unpriced: dict[str, str] = field(default_factory=dict)  # option -> why inf

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


def _measure(fn, reps: int) -> float:
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


@contextmanager
def _engine(spark, eval_pdf: pd.DataFrame):
    """``plan -> None`` running a plan over table ``t`` the way a query runs
    it: on Spark (the table cached first) into the ``noop`` sink when a
    session is given, else on the single-node engine."""
    if spark is None:
        with closing(SqlServerSim({"t": eval_pdf}, threads=os.cpu_count())) as eng:
            yield lambda plan: (
                eng.run_raven_sql if plan.runtime == "sql" else eng.run_raven_predict
            )(plan)
        return
    df = spark.createDataFrame(eval_pdf).cache()
    df.count()
    try:
        yield lambda plan: spark_exec.sink(spark_exec.execute_plan({"t": df}, plan))
    finally:
        df.unpersist()


def build_corpus(
    n_pipelines: int = 120, *, n_rows_train: int = 1500, n_rows_eval: int = 20_000,
    seed: int = 7, spark=None,
) -> list[CorpusEntry]:
    """The corpus, priced on the engine the strategy will run on (§5.2):
    Spark when a session is given, else the single-node engine. Each option
    is :class:`~repro.core.optimizer.RavenOptimizer`'s plan with that runtime
    forced and no logical rule, run by :func:`_engine`, best of 2 runs on
    DuckDB and 1 on Spark. It is priced ``inf``, with the reason in
    :attr:`CorpusEntry.unpriced`, when the optimizer gives it up, when it is
    MLtoSQL over more than :data:`SQL_MAX_TREE_NODES` tree nodes, or on the
    engine's own error; any other error propagates."""
    kind = "corpus" if spark is None else "corpus_spark"
    reps = 2 if spark is None else 1
    engine_error = EngineError if spark is None else Py4JJavaError

    def build() -> list[CorpusEntry]:
        entries: list[CorpusEntry] = []
        for i, (p, eval_pdf) in enumerate(
            _corpus_pipelines(n_pipelines, n_rows_train, n_rows_eval, seed)
        ):
            query = PredictionQuery("t", p, table_cols={"t": list(eval_pdf.columns)})
            nodes = tree_ensemble_size(p)
            runtimes: dict[str, float] = {}
            unpriced: dict[str, str] = {}
            with _engine(spark, eval_pdf) as run:
                for o in OPTIONS:
                    runtimes[o] = np.inf
                    if o == "sql" and nodes > SQL_MAX_TREE_NODES:
                        unpriced[o] = f"{nodes} tree nodes > {SQL_MAX_TREE_NODES}"
                        continue
                    plan = RavenOptimizer(
                        OptimizerConfig(False, False, False, runtime=o)
                    ).optimize(query)
                    if plan.runtime != o:
                        unpriced[o] = f"optimizer chose {plan.runtime!r}"
                        continue
                    try:
                        runtimes[o] = _measure(lambda: run(plan), reps)
                    except engine_error as e:
                        first_line = str(e).partition("\n")[0]
                        unpriced[o] = f"{type(e).__name__}: {first_line}"
            if not all(np.isinf(v) for v in runtimes.values()):
                entries.append(CorpusEntry(pipeline_features(p), runtimes, unpriced))
            print(f"[{kind}] {i + 1}/{n_pipelines} {runtimes}", file=sys.stderr, flush=True)
        return entries

    return cached(kind, (n_pipelines, n_rows_train, n_rows_eval, seed), build)


def corpus_matrices(entries: list[CorpusEntry]):
    """(X 22-dim features, y best-option index, R per-option runtimes)."""
    X = np.vstack([e.features for e in entries])
    y = np.array([OPTIONS.index(e.best) for e in entries], dtype=np.int64)
    R = np.vstack([[e.runtimes[o] for o in OPTIONS] for e in entries])
    return X, y, R
