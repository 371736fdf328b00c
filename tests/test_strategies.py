"""Tests for the 22 pipeline statistics, the synthetic OpenML-style corpus,
and the three §5.2 optimization strategies."""
import numpy as np
import pandas as pd
import pytest

from repro.core.corpus import OPTIONS, build_corpus, corpus_matrices
from repro.core.features import FEATURE_NAMES, pipeline_features
from repro.core.strategies import (
    ClassificationStrategy,
    HeuristicStrategy,
    RegressionStrategy,
    RuleBasedStrategy,
    evaluate_strategies,
)
from repro.ir.builder import build_pipeline_ir
from repro.ml.pipeline import fit_pipeline


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
    tp = fit_pipeline(frame, ["a", "b"], ["c"], "label", kind, **kw)
    return build_pipeline_ir(tp)


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

    def test_matrices(self, corpus):
        X, y, R = corpus_matrices(corpus)
        assert X.shape == (30, 22)
        assert R.shape == (30, 3)
        np.testing.assert_array_equal(y, np.argmin(R, axis=1))

    def test_multiple_winners_exist(self, corpus):
        # the paper's training set is imbalanced but not degenerate
        _, y, _ = corpus_matrices(corpus)
        assert len(np.unique(y)) >= 2

    def test_deterministic_given_seed(self, tmp_path, monkeypatch):
        # each build gets an empty cache, so both are built from scratch
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "a"))
        a = build_corpus(5, n_rows_eval=2000, seed=9)
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "b"))
        b = build_corpus(5, n_rows_eval=2000, seed=9)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.features, eb.features)


class TestStrategies:
    def test_heuristic_choices(self, frame):
        s = HeuristicStrategy()
        assert s.choose(_ir(frame, "lr", l1=0.01)) == "sql"
        assert s.choose(_ir(frame, "dt", max_depth=5)) == "sql"
        assert s.choose(_ir(frame, "gb", max_depth=5, n_estimators=60)) == "none"

    def test_heuristic_gpu_unlocks_dnn(self, frame):
        s = HeuristicStrategy(gpu_available=True, sql_max_nodes=10)
        assert s.choose(_ir(frame, "gb", max_depth=6, n_estimators=80)) == "dnn"

    @pytest.mark.parametrize(
        "cls", [RuleBasedStrategy, ClassificationStrategy, RegressionStrategy]
    )
    def test_fit_and_choose_valid(self, corpus, frame, cls):
        s = cls().fit(corpus)
        for kind in ("lr", "dt", "gb"):
            choice = s.choose(_ir(frame, kind, max_depth=3, n_estimators=5))
            assert choice in OPTIONS

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
