"""Unit tests for the CART learner (repro.ml.tree)."""
import numpy as np
import pytest

from repro.ir.graph import Node
from repro.ir.tree import LEAF
from repro.ml.pipeline import model_attrs
from repro.ml.tree import DecisionTree, _best_split
from repro.runtime import onnx_rt


def _labels(dt, X):
    """``dt``'s class labels, scored by the model kernel over its IR node."""
    return onnx_rt.predict(Node("tree_ensemble", [], model_attrs(dt, "dt")), X)[0]


def _xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


class TestBestSplit:
    def test_perfect_split_found(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]], dtype=np.float32)
        y = np.array([0, 0, 1, 1])
        gain, f, thr = _best_split(X, y, "gini", 2, 1)
        assert f == 0
        assert 1.0 < thr < 2.0
        assert gain == pytest.approx(0.5)

    def test_picks_informative_feature(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.random(200), np.repeat([0.0, 1.0], 100)]).astype(
            np.float32
        )
        y = np.repeat([0, 1], 100)
        gain, f, thr = _best_split(X, y, "gini", 2, 1)
        assert f == 1

    def test_no_split_on_constant_feature(self):
        X = np.ones((10, 1), dtype=np.float32)
        y = np.array([0, 1] * 5)
        assert _best_split(X, y, "gini", 2, 1) is None

    def test_min_samples_leaf_restricts_positions(self):
        X = np.arange(10, dtype=np.float32)[:, None]
        y = np.array([1] + [0] * 9)
        res = _best_split(X, y, "gini", 2, 3)
        if res is not None:
            _, _, thr = res
            n_left = int(np.sum(X[:, 0] <= thr))
            assert 3 <= n_left <= 7

    def test_mse_split(self):
        X = np.arange(8, dtype=np.float32)[:, None]
        y = np.array([0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
        gain, f, thr = _best_split(X, y, "mse", 0, 1)
        assert 3.0 < thr < 4.0
        assert gain == pytest.approx(25.0)


class TestDecisionTree:
    def test_fits_xor(self):
        X, y = _xor_data()
        dt = DecisionTree(max_depth=4).fit(X, y)
        assert (_labels(dt, X) == y).mean() > 0.95

    def test_max_depth_respected(self):
        X, y = _xor_data()
        for depth in (1, 2, 3, 5):
            dt = DecisionTree(max_depth=depth).fit(X, y)
            assert dt.tree_.depth() <= depth

    def test_pure_node_is_leaf(self):
        X = np.random.default_rng(0).random((50, 3)).astype(np.float32)
        y = np.zeros(50, dtype=np.int64)
        dt = DecisionTree(max_depth=5).fit(X, y)
        assert dt.tree_.n_nodes == 1
        assert dt.tree_.left[0] == LEAF

    def test_min_samples_leaf(self):
        X, y = _xor_data(200)
        dt = DecisionTree(max_depth=10, min_samples_leaf=20).fit(X, y)
        leaf = onnx_rt.stack_trees([dt.tree_]).leaves(X)[0]
        counts = np.bincount(leaf, minlength=dt.tree_.n_nodes)
        leaves = dt.tree_.left == LEAF
        assert counts[leaves].min() >= 20

    def test_deterministic(self):
        X, y = _xor_data()
        t1 = DecisionTree(max_depth=6, random_state=3).fit(X, y).tree_
        t2 = DecisionTree(max_depth=6, random_state=3).fit(X, y).tree_
        assert np.array_equal(t1.feature, t2.feature)
        assert np.array_equal(t1.threshold, t2.threshold)

    def test_feature_importances(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((500, 5)).astype(np.float32)
        y = (X[:, 2] > 0).astype(np.int64)
        dt = DecisionTree(max_depth=4).fit(X, y)
        assert np.argmax(dt.feature_importances_) == 2
        assert dt.feature_importances_.sum() == pytest.approx(1.0)

    def test_regression_mode(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (300, 1)).astype(np.float32)
        y = (X[:, 0] > 0.5).astype(np.float64) * 7.0
        dt = DecisionTree(max_depth=2, criterion="mse").fit(X, y)
        pred = onnx_rt.stack_trees([dt.tree_]).payload_sum(X, 0.0)[:, 0]
        assert np.abs(pred - y).mean() < 0.5

    def test_max_features_subsampling_still_learns(self):
        X, y = _xor_data(800)
        dt = DecisionTree(max_depth=8, max_features=1, random_state=0).fit(X, y)
        assert (_labels(dt, X) == y).mean() > 0.8

    def test_single_row(self):
        dt = DecisionTree().fit(np.zeros((1, 2), dtype=np.float32), np.array([1]))
        assert _labels(dt, np.zeros((3, 2))).tolist() == [1, 1, 1]

    def test_value_payload_is_class_distribution(self):
        X, y = _xor_data()
        dt = DecisionTree(max_depth=1).fit(X, y)
        leaves = dt.tree_.left == LEAF
        np.testing.assert_allclose(dt.tree_.value[leaves].sum(axis=1), 1.0)
