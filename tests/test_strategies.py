"""Tests for the 22 pipeline statistics, the synthetic OpenML-style corpus,
and the three §5.2 optimization strategies."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core import corpus as corpus_mod
from repro.core.corpus import OPTIONS, _corpus_pipelines, build_corpus, corpus_matrices
from repro.core.features import FEATURE_NAMES, pipeline_features
from repro.core.optimizer import PhysicalPlan
from repro.core.strategies import (
    ClassificationStrategy,
    RegressionStrategy,
    RuleBasedStrategy,
    evaluate_strategies,
)
from repro.ml.pipeline import fit_pipeline
from repro.runtime import spark_exec
from repro.sqlserver.engine import SqlServerSim


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(71)
    n = 1500
    pdf = pd.DataFrame(
        {
            "a": rng.standard_normal(n),
            "b": rng.standard_normal(n),
            "c": rng.choice([f"v{i}" for i in range(6)], n),
        }
    )
    pdf["label"] = ((pdf.a - pdf.b + (pdf.c == "v0")) > 0).astype(int)
    return pdf


def _ir(frame, kind, **kw):
    return fit_pipeline(frame, ["a", "b"], ["c"], "label", kind, **kw)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # small deterministic corpus for fast tests (bench uses the full one),
    # built from scratch in an empty cache
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_MODEL_CACHE", str(tmp_path_factory.mktemp("cache")))
        return build_corpus(30, n_rows_eval=5000, seed=3)


class TestFeatures:
    def test_feature_vector_shape_and_names(self, frame):
        f = pipeline_features(_ir(frame, "dt", max_depth=4))
        assert f.shape == (22,)
        assert len(FEATURE_NAMES) == 22

    def test_model_kind_onehots(self, frame):
        for kind, name in [("lr", "is_lr"), ("dt", "is_dt"), ("rf", "is_rf"), ("gb", "is_gb")]:
            f = dict(zip(FEATURE_NAMES, pipeline_features(
                _ir(frame, kind, max_depth=3, n_estimators=4)
            )))
            assert f[name] == 1.0
            assert sum(f[k] for k in ("is_lr", "is_dt", "is_rf", "is_gb")) == 1.0

    def test_counts(self, frame):
        f = dict(zip(FEATURE_NAMES, pipeline_features(_ir(frame, "dt", max_depth=3))))
        assert f["n_inputs"] == 3
        assert f["n_num_inputs"] == 2
        assert f["n_cat_inputs"] == 1
        assert f["n_features"] == 8  # 2 scaled + 6 one-hot
        assert f["n_ohe_ops"] == 1
        assert f["max_ohe_outputs"] == 6

    def test_tree_stats(self, frame):
        f = dict(zip(FEATURE_NAMES, pipeline_features(
            _ir(frame, "gb", max_depth=3, n_estimators=5)
        )))
        assert f["n_trees"] == 5
        assert 0 < f["mean_tree_depth"] <= 3
        assert f["total_tree_nodes"] > 5

    def test_linear_stats(self, frame):
        f = dict(zip(FEATURE_NAMES, pipeline_features(_ir(frame, "lr", l1=0.05))))
        assert f["mean_tree_depth"] == 0.0  # paper: 0 for linear models
        assert f["n_trees"] == 0
        assert f["n_nonzero_coef"] >= 1


class TestCorpus:
    def test_entries_complete(self, corpus):
        assert len(corpus) == 30
        for e in corpus:
            assert e.features.shape == (22,)
            assert set(e.runtimes) == set(OPTIONS)
            assert e.runtimes["none"] > 0 and np.isfinite(e.runtimes["none"])
            assert e.best in OPTIONS
            assert set(e.unpriced) == {o for o in OPTIONS if np.isinf(e.runtimes[o])}

    def test_matrices(self, corpus):
        X, y, R = corpus_matrices(corpus)
        assert X.shape == (30, 22)
        assert R.shape == (30, 3)
        np.testing.assert_array_equal(y, np.argmin(R, axis=1))

    def test_multiple_winners_exist(self, corpus):
        # the paper's training set is imbalanced but not degenerate
        _, y, _ = corpus_matrices(corpus)
        assert len(np.unique(y)) >= 2

    def test_deterministic_given_seed(self):
        # the features come from the generated pipelines alone, so two
        # generations are compared without pricing them (the cache's reuse
        # of a priced corpus is covered by test_cache.py)
        a, b = (
            [pipeline_features(p) for p, _ in _corpus_pipelines(5, 1500, 2000, 9)]
            for _ in range(2)
        )
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)


#: a tree of 85 nodes and a linear model, small enough to price in seconds
SMALL = {"n_rows_train": 300, "n_rows_eval": 200, "seed": 2}


@pytest.fixture
def engine(request, tmp_path, monkeypatch):
    """``spark=`` argument of :func:`build_corpus`: None (DuckDB) or the
    session, with an empty artifact cache."""
    monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
    return request.getfixturevalue("spark") if request.param == "spark" else None


class TestCorpusPricing:
    @pytest.mark.parametrize("engine", ["duckdb", "spark"], indirect=True)
    def test_every_option_runs_through_the_engine(self, engine, monkeypatch):
        calls = []

        def count(owner, name):
            run = getattr(owner, name)

            def counted(*args):
                calls.append(args[-1].runtime)  # the plan is the last argument
                return run(*args)

            monkeypatch.setattr(owner, name, counted)

        count(SqlServerSim, "run_raven_sql")
        count(SqlServerSim, "run_raven_predict")
        count(spark_exec, "execute_plan")
        entries = build_corpus(2, spark=engine, **SMALL)
        reps = 2 if engine is None else 1
        priced = [o for e in entries for o in OPTIONS if np.isfinite(e.runtimes[o])]
        assert "sql" in priced and "dnn" in priced
        assert sorted(calls) == sorted(priced * reps)

    @pytest.mark.parametrize("engine", ["spark"], indirect=True)
    def test_sql_the_optimizer_gives_up_is_priced_inf(self, engine, monkeypatch):
        def unsupported(p):
            raise ValueError("not translatable")

        monkeypatch.setattr("repro.core.optimizer.compile_to_sql", unsupported)
        entries = build_corpus(2, spark=engine, **SMALL)
        assert len(entries) == 2
        for e in entries:
            assert e.runtimes["sql"] == np.inf
            assert e.unpriced == {"sql": "optimizer chose 'none'"}
            assert np.isfinite(e.runtimes["none"]) and np.isfinite(e.runtimes["dnn"])

    @pytest.mark.parametrize("engine", ["duckdb"], indirect=True)
    def test_sql_over_a_large_tree_is_priced_inf_unrun(self, engine, monkeypatch):
        monkeypatch.setattr(corpus_mod, "SQL_MAX_TREE_NODES", 50)
        tree, linear = build_corpus(2, spark=engine, **SMALL)
        assert tree.runtimes["sql"] == np.inf
        assert tree.unpriced == {"sql": "85 tree nodes > 50"}
        assert np.isfinite(linear.runtimes["sql"]) and linear.unpriced == {}

    @pytest.mark.parametrize("engine", ["duckdb"], indirect=True)
    def test_an_engine_error_is_priced_inf(self, engine, monkeypatch):
        def out_of_memory(self, plan):
            raise duckdb.OutOfMemoryException("could not allocate\nblock of 256 KiB")

        monkeypatch.setattr(SqlServerSim, "run_raven_sql", out_of_memory)
        for e in build_corpus(2, spark=engine, **SMALL):
            assert e.runtimes["sql"] == np.inf
            assert e.unpriced == {"sql": "OutOfMemoryException: could not allocate"}

    @pytest.mark.parametrize("engine", ["duckdb", "spark"], indirect=True)
    def test_other_errors_propagate(self, engine, monkeypatch):
        def broken(batch):
            raise RuntimeError("scorer broke")

        monkeypatch.setattr(PhysicalPlan, "scorer", lambda self: broken)
        # on Spark the worker's error comes back as a PythonException
        with pytest.raises(Exception, match="scorer broke"):
            build_corpus(2, spark=engine, **SMALL)


class TestStrategies:
    @pytest.mark.parametrize(
        "cls", [RuleBasedStrategy, ClassificationStrategy, RegressionStrategy]
    )
    def test_fit_and_choose_valid(self, corpus, frame, cls):
        s = cls().fit(corpus)
        for kind in ("lr", "dt", "gb"):
            choice = s.choose(_ir(frame, kind, max_depth=3, n_estimators=5))
            assert choice in OPTIONS

    @pytest.mark.parametrize(
        "cls", [RuleBasedStrategy, ClassificationStrategy, RegressionStrategy]
    )
    def test_choice_over_rows_equals_choice_per_row(self, corpus, cls):
        X, _, _ = corpus_matrices(corpus)
        s = cls().fit(corpus)
        per_row = [int(s.choose_rows(X[i : i + 1])[0]) for i in range(len(X))]
        assert s.choose_rows(X).tolist() == per_row

    def test_rule_strategy_uses_k_features(self, corpus):
        s = RuleBasedStrategy(k=3).fit(corpus)
        assert len(s.top_features_) == 3
        text = s.describe()
        assert "apply" in text and ("if" in text or "apply" in text)

    def test_training_accuracy_beats_majority(self, corpus):
        X, y, _ = corpus_matrices(corpus)
        s = ClassificationStrategy().fit(corpus)
        pred = s.model_.predict(X.astype(np.float32))
        majority = np.bincount(y).max() / len(y)
        assert (pred == y).mean() >= majority

    def test_evaluate_strategies_protocol(self, corpus):
        out = evaluate_strategies(corpus, n_repeats=2, n_folds=3, seed=1)
        assert set(out) == {"rule", "classification", "regression"}
        for row in out.values():
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 < row["speedup_median"] <= 1.0 + 1e-9
            assert row["speedup_p25"] <= row["speedup_median"] <= row["speedup_p75"]
