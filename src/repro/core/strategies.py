"""Data-driven optimization strategies for runtime selection (§5.2).

Three strategies, as in the paper:

- :class:`RuleBasedStrategy` — "ML-informed rule-based": train a decision
  tree on the corpus, keep the k most important statistics, re-train a
  much shallower tree on those; the shallow tree *is* the rule (no model
  invocation beyond a 2–3 deep tree at optimization time).
- :class:`ClassificationStrategy` — random forest predicting the best of
  {none, MLtoSQL, MLtoDNN} (the paper's preferred strategy).
- :class:`RegressionStrategy` — decision-tree regressor predicting the
  runtime of each option (the option becomes a feature, tripling the
  training set); pick the argmin.

Each strategy chooses for a matrix of feature rows at once
(``choose_rows``, which the Fig 4 evaluation calls); ``choose`` is that
choice for one pipeline. A strategy keeps its fitted model as an IR model
node and predicts through the serving kernel, :mod:`repro.runtime.onnx_rt`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.corpus import OPTIONS, CorpusEntry, corpus_matrices
from repro.core.features import FEATURE_NAMES, pipeline_features
from repro.ir.graph import Node, Pipeline
from repro.ml.ensemble import RandomForest
from repro.ml.pipeline import model_attrs
from repro.ml.tree import DecisionTree
from repro.runtime import onnx_rt


def _model_node(model, kind: str) -> Node:
    return Node("tree_ensemble", [], model_attrs(model, kind))


class _Strategy:
    def choose(self, p: Pipeline) -> str:
        """The option chosen for pipeline ``p``."""
        return OPTIONS[int(self.choose_rows(pipeline_features(p)[None, :])[0])]


@dataclass
class RuleBasedStrategy(_Strategy):
    """Two-stage tree distillation -> shallow decision rule."""

    k: int = 3
    shallow_depth: int = 2
    top_features_: list[int] = field(default_factory=list)
    rule_: Node | None = None

    def fit(self, entries: list[CorpusEntry]) -> "RuleBasedStrategy":
        X, y, _ = corpus_matrices(entries)
        full = DecisionTree(max_depth=8, random_state=0).fit(
            X.astype(np.float32), y
        )
        self.top_features_ = list(
            np.argsort(full.feature_importances_)[::-1][: self.k]
        )
        rule = DecisionTree(max_depth=self.shallow_depth, random_state=0).fit(
            X[:, self.top_features_].astype(np.float32), y
        )
        self.rule_ = _model_node(rule, "dt")
        return self

    def choose_rows(self, X: np.ndarray) -> np.ndarray:
        return onnx_rt.predict(self.rule_, X[:, self.top_features_].astype(np.float32))[0]

    def describe(self) -> str:
        """Human-readable nested-if form of the learned rule."""
        (t,) = self.rule_.attrs["trees"]
        names = [FEATURE_NAMES[i] for i in self.top_features_]

        def rec(node: int, indent: str) -> str:
            if t.left[node] == -1:
                return f"{indent}apply {OPTIONS[int(np.argmax(t.value[node]))]}"
            f, thr = names[int(t.feature[node])], t.threshold[node]
            return (
                f"{indent}if {f} <= {thr:.2f}:\n"
                + rec(int(t.left[node]), indent + "  ")
                + f"\n{indent}else:\n"
                + rec(int(t.right[node]), indent + "  ")
            )

        return rec(0, "")


@dataclass
class ClassificationStrategy(_Strategy):
    """Random-forest classifier over the 22 statistics."""

    n_estimators: int = 60
    model_: Node | None = None

    def fit(self, entries: list[CorpusEntry]) -> "ClassificationStrategy":
        X, y, _ = corpus_matrices(entries)
        rf = RandomForest(
            n_estimators=self.n_estimators, max_depth=8, random_state=0
        ).fit(X.astype(np.float32), y)
        self.model_ = _model_node(rf, "rf")
        return self

    def choose_rows(self, X: np.ndarray) -> np.ndarray:
        return onnx_rt.predict(self.model_, X.astype(np.float32))[0]


@dataclass
class RegressionStrategy(_Strategy):
    """Runtime regressor; transformation id is an input feature."""

    max_depth: int = 10
    model_: Node | None = None

    @staticmethod
    def _expand(X: np.ndarray) -> np.ndarray:
        """(n, 22) -> (3n, 25): one row per (pipeline, option)."""
        n = X.shape[0]
        rows = []
        for opt_idx in range(len(OPTIONS)):
            onehot = np.zeros((n, len(OPTIONS)))
            onehot[:, opt_idx] = 1.0
            rows.append(np.hstack([X, onehot]))
        return np.vstack(rows)

    def fit(self, entries: list[CorpusEntry]) -> "RegressionStrategy":
        X, _, R = corpus_matrices(entries)
        Xe = self._expand(X)
        # log-runtime target; unsupported options priced at a large penalty
        y = np.log(np.minimum(R.T.reshape(-1), 1e3) + 1e-6)
        tree = DecisionTree(
            max_depth=self.max_depth, criterion="mse", random_state=0
        ).fit(Xe.astype(np.float32), y)
        self.model_ = _model_node(tree, "dt")
        return self

    def choose_rows(self, X: np.ndarray) -> np.ndarray:
        stack = onnx_rt.stack_trees(self.model_.attrs["trees"])
        preds = stack.payload_sum(self._expand(X).astype(np.float32), 0.0)[:, 0]
        return np.argmin(preds.reshape(len(OPTIONS), -1), axis=0)


def evaluate_strategies(
    entries: list[CorpusEntry],
    *,
    n_repeats: int = 40,
    n_folds: int = 5,
    seed: int = 0,
) -> dict[str, dict[str, object]]:
    """Fig 4 protocol: stratified 5-fold CV repeated 40 times (200 runs).

    Returns per strategy: mean accuracy and the distribution of
    test-fold *speedup vs optimal* (total time of chosen options divided
    into total time of optimal options; 1.0 = optimal).
    """
    X, y, R = corpus_matrices(entries)
    n = len(entries)
    rng = np.random.default_rng(seed)
    makers = {
        "rule": lambda: RuleBasedStrategy(),
        "classification": lambda: ClassificationStrategy(),
        "regression": lambda: RegressionStrategy(),
    }
    acc: dict[str, list[float]] = {k: [] for k in makers}
    speedup: dict[str, list[float]] = {k: [] for k in makers}

    for rep in range(n_repeats):
        # stratified fold assignment
        folds = np.empty(n, dtype=np.int64)
        for cls in np.unique(y):
            idx = np.flatnonzero(y == cls)
            rng.shuffle(idx)
            folds[idx] = np.arange(len(idx)) % n_folds
        for fold in range(n_folds):
            test = folds == fold
            train_entries = [e for e, t in zip(entries, test) if not t]
            for name, make in makers.items():
                strat = make().fit(train_entries)
                chosen = strat.choose_rows(X[test])
                acc[name].append(float(np.mean(chosen == y[test])))
                t_chosen = R[test, chosen].sum()
                t_opt = R[test].min(axis=1).sum()
                speedup[name].append(float(t_opt / t_chosen))

    out = {}
    for name in makers:
        s = np.array(speedup[name])
        out[name] = {
            "accuracy": float(np.mean(acc[name])),
            "speedup_median": float(np.median(s)),
            "speedup_p25": float(np.percentile(s, 25)),
            "speedup_p75": float(np.percentile(s, 75)),
            "speedup_min": float(s.min()),
            "speedup_max": float(s.max()),
        }
    return out
