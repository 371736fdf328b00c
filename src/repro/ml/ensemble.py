"""Random forest and gradient boosting learners (scikit-learn substitute).

Both are binary classifiers built on :class:`repro.ml.tree.DecisionTree`:

- :class:`RandomForest`: bootstrap rows + per-node ``sqrt(d)`` feature
  subsets; the model averages per-tree class-probability vectors
  (scikit-learn's soft voting).
- :class:`GradientBoosting`: logistic-loss gradient boosting; each stage
  fits an mse regression tree to the residual ``y - sigmoid(F)`` and leaf
  values take a Newton step, matching sklearn/LightGBM-style boosting. The
  learned ensemble is a list of margin trees, learning rate folded into
  their payloads, plus ``base_score`` (log-odds).

The learners only fit. A fitted model predicts through its IR model node
(:func:`repro.ml.pipeline.model_attrs`) and the one model kernel,
:mod:`repro.runtime.onnx_rt`; boosting routes each stage's rows with that
kernel's :class:`~repro.runtime.onnx_rt.TreeStack` too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.tree import LEAF, Tree
from repro.ml.tree import DecisionTree
from repro.runtime.onnx_rt import sigmoid, stack_trees


@dataclass
class RandomForest:
    """Bagged CART ensemble with soft-vote aggregation."""

    n_estimators: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    random_state: int = 0

    trees_: list[Tree] = field(default_factory=list, repr=False)
    n_classes_: int = 2

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]
        rng = np.random.default_rng(self.random_state)
        self.n_classes_ = max(2, int(y.max()) + 1)
        self.trees_ = []
        for m in range(self.n_estimators):
            rows = rng.integers(0, n, size=n)
            dt = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                criterion="gini",
                max_features="sqrt",
                random_state=int(rng.integers(0, 2**31 - 1)),
            ).fit(X[rows], y[rows])
            # Bootstrap may miss a class entirely; pad the payload width so
            # every tree agrees on n_out.
            t = dt.tree_
            if t.n_out < self.n_classes_:
                pad = np.zeros((t.n_nodes, self.n_classes_ - t.n_out))
                t = Tree(t.feature, t.threshold, t.left, t.right,
                         np.hstack([t.value, pad]))
            self.trees_.append(t)
        return self


@dataclass
class GradientBoosting:
    """Binary logistic gradient boosting over mse regression trees."""

    n_estimators: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 1
    max_features: int | str | None = None
    random_state: int = 0

    trees_: list[Tree] = field(default_factory=list, repr=False)
    base_score_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoosting":
        X = np.asarray(X, dtype=np.float32)
        X_slots = np.asfortranarray(X)  # the layout TreeStack reads, made once
        y = np.asarray(y, dtype=np.float64)
        p0 = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(p0 / (1 - p0)))
        F = np.full(X.shape[0], self.base_score_)
        self.trees_ = []
        for m in range(self.n_estimators):
            p = sigmoid(F)
            residual = y - p
            dt = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                criterion="mse",
                max_features=self.max_features,
                random_state=self.random_state + m,
            ).fit(X, residual)
            t = dt.tree_
            # Newton leaf values: sum(residual) / sum(p*(1-p)) per leaf.
            leaf = stack_trees([t]).leaves(X_slots)[0]
            num = np.bincount(leaf, weights=residual, minlength=t.n_nodes)
            den = np.bincount(leaf, weights=p * (1 - p), minlength=t.n_nodes)
            gamma = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
            value = t.value.copy()
            is_leaf = t.left == LEAF
            value[is_leaf, 0] = gamma[is_leaf]
            value = value * float(self.learning_rate)
            self.trees_.append(Tree(t.feature, t.threshold, t.left, t.right, value))
            F = F + value[leaf, 0]
        return self
