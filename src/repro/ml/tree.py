"""From-scratch CART decision-tree learner (scikit-learn substitute).

Greedy top-down induction with exact threshold search, fully vectorized per
node: all candidate features are argsorted at once and every split position
of every candidate is scored in one NumPy expression. Supports gini
(classification) and mse (regression, used by gradient boosting), per-node
random feature subsets (used by random forests and to bound cost on the
wide one-hot matrices of the Expedia/Flights datasets), and gain-based
feature importances (used by the rule-based optimization strategy of §5.2).

Output is the :class:`repro.ir.tree.Tree` array structure that the Raven
optimizer consumes directly. The learner only fits: a fitted tree predicts
through its IR model node and the one model kernel,
:mod:`repro.runtime.onnx_rt`, as in training, the strategies and serving.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.tree import LEAF, Tree

_EPS = 1e-12


@dataclass
class DecisionTree:
    """CART learner.

    Parameters mirror scikit-learn: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf``, ``criterion`` in {"gini", "mse"}, ``max_features``
    (None = all, int = per-node random subset, "sqrt" = ceil(sqrt(d))).
    """

    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    criterion: str = "gini"
    max_features: int | str | None = None
    random_state: int = 0
    min_gain: float = 1e-9

    tree_: Tree | None = field(default=None, repr=False)
    n_features_: int = 0
    n_classes_: int = 0
    feature_importances_: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.ascontiguousarray(X, dtype=np.float32)
        n, d = X.shape
        self.n_features_ = d
        rng = np.random.default_rng(self.random_state)
        if self.criterion == "gini":
            y = np.asarray(y, dtype=np.int64)
            self.n_classes_ = int(y.max()) + 1 if n else 2
            self.n_classes_ = max(self.n_classes_, 2)
        else:
            y = np.asarray(y, dtype=np.float64)
            self.n_classes_ = 0

        n_cand = self._n_candidates(d)
        importances = np.zeros(d)

        feats: list[int] = []
        thrs: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[np.ndarray] = []

        def leaf_value(idx: np.ndarray) -> np.ndarray:
            if self.criterion == "gini":
                counts = np.bincount(y[idx], minlength=self.n_classes_)
                return counts / counts.sum()
            return np.array([y[idx].mean()])

        def emit_leaf(idx: np.ndarray) -> int:
            node = len(feats)
            feats.append(0)
            thrs.append(0.0)
            lefts.append(LEAF)
            rights.append(LEAF)
            values.append(leaf_value(idx))
            return node

        def build(idx: np.ndarray, depth: int) -> int:
            n_node = idx.shape[0]
            if (
                (self.max_depth is not None and depth >= self.max_depth)
                or n_node < self.min_samples_split
                or n_node < 2 * self.min_samples_leaf
            ):
                return emit_leaf(idx)
            if self.criterion == "gini" and len(np.unique(y[idx])) == 1:
                return emit_leaf(idx)
            if n_cand < d:
                cand = rng.choice(d, size=n_cand, replace=False)
            else:
                cand = np.arange(d)
            best = _best_split(
                X[idx][:, cand], y[idx], self.criterion, self.n_classes_,
                self.min_samples_leaf,
            )
            if best is None or best[0] <= self.min_gain:
                return emit_leaf(idx)
            gain, local_f, thr = best
            f = int(cand[local_f])
            importances[f] += gain * n_node / n
            node = len(feats)
            feats.append(f)
            thrs.append(thr)
            lefts.append(-2)
            rights.append(-2)
            values.append(leaf_value(idx))
            go_left = X[idx, f] <= thr
            lefts[node] = build(idx[go_left], depth + 1)
            rights[node] = build(idx[~go_left], depth + 1)
            return node

        build(np.arange(n), 0)
        n_out = self.n_classes_ if self.criterion == "gini" else 1
        self.tree_ = Tree(
            np.array(feats), np.array(thrs), np.array(lefts), np.array(rights),
            np.vstack([v.reshape(1, n_out) for v in values]),
        )
        tot = importances.sum()
        self.feature_importances_ = importances / tot if tot > 0 else importances
        return self

    def _n_candidates(self, d: int) -> int:
        if self.max_features is None:
            return min(d, 512)  # cost bound on very wide one-hot matrices
        if self.max_features == "sqrt":
            return max(1, int(np.ceil(np.sqrt(d))))
        return min(d, int(self.max_features))


def _best_split(
    Xc: np.ndarray,
    y: np.ndarray,
    criterion: str,
    n_classes: int,
    min_samples_leaf: int,
) -> tuple[float, int, float] | None:
    """Score every (position, candidate-feature) split at once.

    Returns ``(impurity_gain, candidate_index, threshold)`` for the best
    valid split, or None if no position separates two distinct values.
    Thresholds are midpoints between consecutive distinct sorted values,
    matching scikit-learn.
    """
    n, c = Xc.shape
    order = np.argsort(Xc, axis=0, kind="stable")  # (n, c)
    xs = np.take_along_axis(Xc, order, axis=0)
    ys = y[order]  # (n, c)

    k = n - 1  # split positions: left = rows [0..i], i in [0, k)
    nl = np.arange(1, n, dtype=np.float64)[:, None]  # (k, 1)
    nr = n - nl
    if criterion == "gini":
        # child impurity sums via per-class cumulative counts
        imp_l = np.ones((k, c))
        imp_r = np.ones((k, c))
        sq_l = np.zeros((k, c))
        sq_r = np.zeros((k, c))
        for cls in range(n_classes):
            cnt = np.cumsum(ys == cls, axis=0)[:-1].astype(np.float64)
            sq_l += (cnt / nl) ** 2
            sq_r += ((cnt[-1:] + (ys[-1] == cls) - cnt) / nr) ** 2
        imp_l -= sq_l
        imp_r -= sq_r
        total_counts = np.array(
            [np.sum(y == cls) for cls in range(n_classes)], dtype=np.float64
        )
        parent = 1.0 - np.sum((total_counts / n) ** 2)
    else:
        s = np.cumsum(ys, axis=0)[:-1]
        s2 = np.cumsum(ys**2, axis=0)[:-1]
        st = ys.sum(axis=0, keepdims=True)
        s2t = (ys**2).sum(axis=0, keepdims=True)
        imp_l = s2 / nl - (s / nl) ** 2
        imp_r = (s2t - s2) / nr - ((st - s) / nr) ** 2
        parent = float(np.var(y))

    score = (nl * imp_l + nr * imp_r) / n  # (k, c) weighted child impurity
    valid = xs[:-1] < xs[1:]  # can only cut between distinct values
    if min_samples_leaf > 1:
        pos_ok = (nl[:, 0] >= min_samples_leaf) & (nr[:, 0] >= min_samples_leaf)
        valid &= pos_ok[:, None]
    if not valid.any():
        return None
    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score))
    i, f = divmod(flat, c)
    gain = parent - float(score[i, f])
    thr = float((xs[i, f].astype(np.float64) + xs[i + 1, f]) / 2.0)
    return gain, f, thr
