"""Trained-pipeline construction (the paper's "trained pipeline M").

A pipeline is featurizers + a model, fit with scikit-learn in the paper and
with :mod:`repro.ml` here: numeric inputs are standard-scaled, categorical
inputs one-hot encoded, the concatenated feature vector feeds one of
{logistic regression, decision tree, gradient boosting, random forest}
(the four model families of §7).

The trained pipeline *is* the unified IR (what ``skl2onnx`` exports for
Raven), the paper's Fig 2 ②::

    inputs(num...) -> Concat -> Scaler ┐
    input(cat) -> OneHotEncoder ... ───┴-> Concat -> Model

so the feature-vector layout is ``[scaled numerics in num_cols order] ++
[one-hot blocks per cat col in cat_cols order]``, and the training matrix
comes from the serving featurizer, :func:`repro.runtime.onnx_rt.featurize`.
Gradient-boosting learning rate is folded into leaf values, so the ensemble
is ``base_score + Σ tree(x)`` — the form MLtoSQL and MLtoDNN compile.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.cache import cached
from repro.ir.graph import Node, Pipeline
from repro.ir.tree import Tree
from repro.ml.ensemble import GradientBoosting, RandomForest
from repro.ml.linear import LogisticRegression
from repro.ml.tree import DecisionTree
from repro.runtime import onnx_rt

MODEL_KINDS = ("lr", "dt", "gb", "rf")


def _categories(values) -> list[str]:
    """A one-hot's category list: the distinct values as strings, sorted."""
    return sorted(pd.unique(pd.Series(values).astype(str)))


def fit_pipeline(
    pdf: pd.DataFrame,
    num_cols: list[str],
    cat_cols: list[str],
    label_col: str,
    model_kind: str,
    *,
    max_depth: int | None = None,
    n_estimators: int = 100,
    l1: float = 0.0,
    learning_rate: float = 0.1,
    min_samples_leaf: int = 1,
    max_features: int | str | None = None,
    random_state: int = 0,
    cat_domains: dict[str, list[str]] | None = None,
) -> Pipeline:
    """Fit featurizers and a model of ``model_kind`` on ``pdf``; the IR
    pipeline that runs them.

    The Scaler holds each numeric column's mean and ``1/std`` (1 for a
    constant column). ``cat_domains`` optionally supplies the full category
    domain per categorical column (schema metadata), so encoders cover
    categories a finite training sample may miss — production encoders are
    fit on the full training data, which our sampled training frame stands
    in for. Node ids are ``f<k>`` in build order: the same for every fit,
    and never one a rewrite's fresh node (``n<k>``) takes.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    nodes: dict[str, Node] = {}

    def add(op: str, inputs: list[str], attrs: dict) -> str:
        nid = f"f{len(nodes)}"
        nodes[nid] = Node(op, inputs, attrs, id=nid)
        return nid

    features: list[str] = []
    if num_cols:
        X = pdf[num_cols].to_numpy(dtype=np.float64)
        std = X.std(axis=0)
        inputs = [add("input", [], {"name": c, "kind": "num"}) for c in num_cols]
        features.append(add("scaler", [add("concat", inputs, {})], {
            "offset": X.mean(axis=0),
            "scale": 1.0 / np.where(std > 1e-12, std, 1.0),
        }))
    cat_domains = cat_domains or {}
    for c in cat_cols:
        categories = _categories(cat_domains[c] if c in cat_domains else pdf[c])
        features.append(add("onehot", [add("input", [], {"name": c, "kind": "cat"})],
                            {"categories": categories}))
    op = "linear_classifier" if model_kind == "lr" else "tree_ensemble"
    model_id = add(op, [add("concat", features, {})], {})
    p = Pipeline(nodes, model_id, list(num_cols) + list(cat_cols))
    p.validate()

    # BLAS sums in memory order, so the logistic fit's last bits depend on
    # X's layout: column-major without one-hot blocks, else row-major, as
    # every model here has been fit
    order = "C" if cat_cols else "F"
    X = onnx_rt.featurize(p, pdf).astype(np.float32, order=order)
    y = pdf[label_col].to_numpy(dtype=np.int64)
    if model_kind == "lr":
        model = LogisticRegression(l1=l1, random_state=random_state).fit(X, y)
    elif model_kind == "dt":
        model = DecisionTree(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            max_features=max_features, random_state=random_state,
        ).fit(X, y)
    elif model_kind == "gb":
        model = GradientBoosting(
            n_estimators=n_estimators, max_depth=max_depth or 3,
            learning_rate=learning_rate, min_samples_leaf=min_samples_leaf,
            max_features=max_features, random_state=random_state,
        ).fit(X, y)
    else:
        model = RandomForest(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, random_state=random_state,
        ).fit(X, y)
    p.model_node.attrs.update(model_attrs(model, model_kind))
    return p


def model_attrs(model, kind: str) -> dict:
    """The model node's attributes for a fitted learner of ``kind``."""
    if kind == "lr":
        return {
            "coef": np.asarray(model.coef_, dtype=np.float64),
            "intercept": float(model.intercept_),
        }
    if kind == "gb":
        lr = float(model.learning_rate)
        trees = [
            Tree(t.feature, t.threshold, t.left, t.right, t.value * lr)
            for t in model.trees_
        ]
        return {"trees": trees, "kind": "gb", "base_score": float(model.base_score_)}
    trees = [model.tree_] if kind == "dt" else list(model.trees_)
    return {"trees": trees, "kind": kind, "base_score": 0.0}


def fit_pipeline_cached(pdf: pd.DataFrame, key: str, **kwargs) -> Pipeline:
    """``fit_pipeline`` through the artifact cache (:mod:`repro.cache`).

    ``key`` must identify the training frame (dataset name, rows, seed);
    hyperparameters are folded into the cache key automatically.
    """
    return cached(
        "pipeline", (key, sorted(kwargs.items())), lambda: fit_pipeline(pdf, **kwargs)
    )
