"""Unit tests for ensembles, logistic regression, and featurizers."""
import numpy as np
import pandas as pd
import pytest

from repro.ml.ensemble import GradientBoosting, RandomForest, sigmoid
from repro.ir.slots import model_input_slots
from repro.ml.linear import LogisticRegression
from repro.ml.pipeline import fit_pipeline
from repro.runtime import onnx_rt


def _data(n=1500, d=8, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)).astype(np.float32)
    margin = X[:, 0] - 0.8 * X[:, 3] + 0.5 * X[:, 5]
    y = (margin + 0.3 * rng.standard_normal(n) > 0).astype(np.int64)
    return X, y


class TestRandomForest:
    def test_accuracy_beats_single_stump(self):
        X, y = _data()
        rf = RandomForest(n_estimators=15, max_depth=6, random_state=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.9

    def test_proba_normalized(self):
        X, y = _data(300)
        rf = RandomForest(n_estimators=5, max_depth=4).fit(X, y)
        np.testing.assert_allclose(rf.predict_proba(X).sum(axis=1), 1.0)

    def test_n_trees(self):
        X, y = _data(200)
        rf = RandomForest(n_estimators=7, max_depth=3).fit(X, y)
        assert len(rf.trees_) == 7

    def test_trees_padded_to_common_width(self):
        X, y = _data(100)
        rf = RandomForest(n_estimators=4, max_depth=3).fit(X, y)
        assert all(t.n_out == rf.n_classes_ for t in rf.trees_)

    def test_deterministic(self):
        X, y = _data(300)
        a = RandomForest(n_estimators=3, max_depth=3, random_state=5).fit(X, y)
        b = RandomForest(n_estimators=3, max_depth=3, random_state=5).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))


class TestGradientBoosting:
    def test_accuracy_improves_with_stages(self):
        X, y = _data()
        gb1 = GradientBoosting(n_estimators=2, max_depth=3).fit(X, y)
        gb2 = GradientBoosting(n_estimators=30, max_depth=3).fit(X, y)
        assert (gb2.predict(X) == y).mean() >= (gb1.predict(X) == y).mean()
        assert (gb2.predict(X) == y).mean() > 0.92

    def test_base_score_is_log_odds(self):
        X, y = _data(500)
        gb = GradientBoosting(n_estimators=1, max_depth=1).fit(X, y)
        p = y.mean()
        assert gb.base_score_ == pytest.approx(np.log(p / (1 - p)), rel=1e-6)

    def test_decision_function_matches_proba(self):
        X, y = _data(200)
        gb = GradientBoosting(n_estimators=5, max_depth=2).fit(X, y)
        np.testing.assert_allclose(
            gb.predict_proba(X)[:, 1], sigmoid(gb.decision_function(X))
        )

    def test_tree_depth_bounded(self):
        X, y = _data(300)
        gb = GradientBoosting(n_estimators=4, max_depth=2).fit(X, y)
        assert all(t.depth() <= 2 for t in gb.trees_)


class TestLogisticRegression:
    def test_recovers_signal(self):
        X, y = _data()
        lr = LogisticRegression(l1=0.0).fit(X, y)
        assert (lr.predict(X) == y).mean() > 0.93
        assert lr.coef_[0] > 0 and lr.coef_[3] < 0

    def test_l1_produces_exact_zeros_monotonically(self):
        X, y = _data()
        zeros = [
            LogisticRegression(l1=l).fit(X, y).n_zero_weights
            for l in (0.0, 0.03, 0.1, 0.5)
        ]
        assert zeros[0] <= zeros[1] <= zeros[2] <= zeros[3]
        assert zeros[-1] >= 6  # strong penalty kills noise features
        assert zeros[1] >= 1

    def test_irrelevant_features_zeroed_first(self):
        X, y = _data()
        lr = LogisticRegression(l1=0.05).fit(X, y)
        # signal features survive moderate regularization
        assert lr.coef_[0] != 0.0 and lr.coef_[3] != 0.0


def _fit_featurizers(pdf, num_cols=(), cat_cols=()):
    """The fitted featurizers of a pipeline trained on ``pdf`` (label 0/1)."""
    pdf = pdf.assign(label=np.arange(len(pdf)) % 2)
    return fit_pipeline(pdf, list(num_cols), list(cat_cols), "label", "dt", max_depth=1)


def _op(p, op):
    (node,) = [n for n in p.nodes.values() if n.op == op]
    return node


class TestFeaturizers:
    def test_scaler_roundtrip(self):
        rng = np.random.default_rng(0)
        pdf = pd.DataFrame(rng.normal(5, 3, size=(500, 4)), columns=list("abcd"))
        Z = onnx_rt.featurize(_fit_featurizers(pdf, "abcd"), pdf)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_constant_column(self):
        pdf = pd.DataFrame({"one": np.ones(10), "i": np.arange(10.0)})
        p = _fit_featurizers(pdf, ["one", "i"])
        assert _op(p, "scaler").attrs["scale"][0] == 1.0
        assert np.all(np.isfinite(onnx_rt.featurize(p, pdf)))

    def test_onehot_known_categories(self):
        p = _fit_featurizers(pd.DataFrame({"c": ["b", "c", "a", "a"]}), cat_cols=["c"])
        assert _op(p, "onehot").attrs["categories"] == ["a", "b", "c"]
        out = onnx_rt.featurize(p, pd.DataFrame({"c": ["b", "a"]}))
        np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 0]])

    def test_onehot_unknown_is_all_zero(self):
        p = _fit_featurizers(pd.DataFrame({"c": ["x", "y"]}), cat_cols=["c"])
        out = onnx_rt.featurize(p, pd.DataFrame({"c": ["z"]}))
        np.testing.assert_array_equal(out, [[0, 0]])


class TestFitPipeline:
    @pytest.fixture(scope="class")
    def frame(self):
        rng = np.random.default_rng(7)
        n = 1200
        pdf = pd.DataFrame(
            {
                "x1": rng.standard_normal(n),
                "x2": rng.standard_normal(n) * 4 + 2,
                "c1": rng.choice(["a", "b", "c"], n),
                "c2": rng.choice(["p", "q"], n),
            }
        )
        pdf["label"] = (
            (pdf.x1 + 0.7 * (pdf.c1 == "a") - 0.5 * (pdf.c2 == "q")) > 0
        ).astype(int)
        return pdf

    @pytest.mark.parametrize("kind", ["lr", "dt", "gb", "rf"])
    def test_all_model_kinds_learn(self, frame, kind):
        p = fit_pipeline(
            frame, ["x1", "x2"], ["c1", "c2"], "label", kind,
            max_depth=6, n_estimators=10,
        )
        assert (onnx_rt.run(p, frame)[0] == frame.label).mean() > 0.85

    def test_feature_layout(self, frame):
        p = fit_pipeline(frame, ["x1", "x2"], ["c1", "c2"], "label", "dt", max_depth=3)
        names = [s.source if s.kind == "num" else f"{s.source}={s.category}"
                 for s in model_input_slots(p)]
        assert names == ["x1", "x2", "c1=a", "c1=b", "c1=c", "c2=p", "c2=q"]
        assert p.n_model_features() == 7
        assert onnx_rt.featurize(p, frame).shape == (len(frame), 7)

    def test_categoricals_only(self, frame):
        p = fit_pipeline(frame, [], ["c1", "c2"], "label", "dt", max_depth=4)
        assert p.n_model_features() == 5
        onnx_rt.run(p, frame)  # no numeric branch

    def test_bad_kind_raises(self, frame):
        with pytest.raises(ValueError):
            fit_pipeline(frame, ["x1"], [], "label", "svm")
