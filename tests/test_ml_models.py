"""Unit tests for ensembles, logistic regression, and featurizers."""
import numpy as np
import pandas as pd
import pytest

from repro.ml.ensemble import GradientBoosting, RandomForest, sigmoid
from repro.ml.featurize import OneHotEncoder, StandardScaler
from repro.ml.linear import LogisticRegression
from repro.ml.pipeline import fit_pipeline


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


class TestFeaturizers:
    def test_scaler_roundtrip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 3, size=(500, 4))
        sc = StandardScaler().fit(X)
        Z = sc.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_constant_column(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        Z = StandardScaler().fit(X).transform(X)
        assert np.all(np.isfinite(Z))

    def test_onehot_known_categories(self):
        enc = OneHotEncoder().fit(["a", "b", "c", "a"])
        assert enc.categories_ == ["a", "b", "c"]
        out = enc.transform(["b", "a"])
        np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 0]])

    def test_onehot_unknown_is_all_zero(self):
        enc = OneHotEncoder().fit(["x", "y"])
        np.testing.assert_array_equal(enc.transform(["z"]), [[0, 0]])


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
        tp = fit_pipeline(
            frame, ["x1", "x2"], ["c1", "c2"], "label", kind,
            max_depth=6, n_estimators=10,
        )
        assert (tp.predict(frame) == frame.label).mean() > 0.85

    def test_feature_layout(self, frame):
        tp = fit_pipeline(frame, ["x1", "x2"], ["c1", "c2"], "label", "dt", max_depth=3)
        assert tp.feature_names == ["x1", "x2", "c1=a", "c1=b", "c1=c", "c2=p", "c2=q"]
        assert tp.n_features == 7
        assert tp.featurize(frame).shape == (len(frame), 7)

    def test_categoricals_only(self, frame):
        tp = fit_pipeline(frame, [], ["c1", "c2"], "label", "dt", max_depth=4)
        assert tp.n_features == 5
        tp.predict(frame)  # no numeric branch

    def test_bad_kind_raises(self, frame):
        with pytest.raises(ValueError):
            fit_pipeline(frame, ["x1"], [], "label", "svm")
