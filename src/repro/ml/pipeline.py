"""Trained-pipeline construction (the paper's "trained pipeline M").

A pipeline is featurizers + a model, fit with scikit-learn in the paper and
with :mod:`repro.ml` here: numeric inputs are standard-scaled, categorical
inputs one-hot encoded, the concatenated feature vector feeds one of
{logistic regression, decision tree, gradient boosting, random forest}
(the four model families of §7). Feature-vector layout (shared with
``repro.ir.builder``): ``[scaled numerics in num_cols order] ++
[one-hot blocks per cat col in cat_cols order]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.cache import cached
from repro.ml.ensemble import GradientBoosting, RandomForest
from repro.ml.featurize import OneHotEncoder, StandardScaler
from repro.ml.linear import LogisticRegression
from repro.ml.tree import DecisionTree

MODEL_KINDS = ("lr", "dt", "gb", "rf")


@dataclass
class TrainedPipeline:
    """Fitted featurizers + model, with the dense feature layout metadata."""

    num_cols: list[str]
    cat_cols: list[str]
    scaler: StandardScaler | None
    encoders: dict[str, OneHotEncoder]
    model: object
    model_kind: str

    @property
    def input_cols(self) -> list[str]:
        return list(self.num_cols) + list(self.cat_cols)

    @property
    def feature_names(self) -> list[str]:
        names = list(self.num_cols)
        for c in self.cat_cols:
            names += [f"{c}={cat}" for cat in self.encoders[c].categories_]
        return names

    @property
    def n_features(self) -> int:
        return len(self.num_cols) + sum(
            self.encoders[c].n_categories for c in self.cat_cols
        )

    def featurize(self, pdf: pd.DataFrame) -> np.ndarray:
        blocks = []
        if self.num_cols:
            X = pdf[self.num_cols].to_numpy(dtype=np.float64)
            blocks.append(self.scaler.transform(X))
        for c in self.cat_cols:
            blocks.append(self.encoders[c].transform(pdf[c]))
        return np.hstack(blocks) if blocks else np.empty((len(pdf), 0))

    def predict(self, pdf: pd.DataFrame) -> np.ndarray:
        return self.model.predict(self.featurize(pdf))

    def predict_proba1(self, pdf: pd.DataFrame) -> np.ndarray:
        return self.model.predict_proba(self.featurize(pdf))[:, 1]


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
) -> TrainedPipeline:
    """Fit featurizers and a model of ``model_kind`` on ``pdf``.

    ``cat_domains`` optionally supplies the full category domain per
    categorical column (schema metadata), so encoders cover categories a
    finite training sample may miss — production encoders are fit on the
    full training data, which our sampled training frame stands in for.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    scaler = None
    if num_cols:
        scaler = StandardScaler().fit(pdf[num_cols].to_numpy(dtype=np.float64))
    cat_domains = cat_domains or {}
    encoders = {
        c: OneHotEncoder().fit(cat_domains[c]) if c in cat_domains
        else OneHotEncoder().fit(pdf[c])
        for c in cat_cols
    }
    tp = TrainedPipeline(list(num_cols), list(cat_cols), scaler, encoders, None, model_kind)
    X = tp.featurize(pdf).astype(np.float32)
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
    tp.model = model
    return tp


def fit_pipeline_cached(pdf: pd.DataFrame, key: str, **kwargs) -> TrainedPipeline:
    """``fit_pipeline`` through the artifact cache (:mod:`repro.cache`).

    ``key`` must identify the training frame (dataset name, rows, seed);
    hyperparameters are folded into the cache key automatically.
    """
    return cached(
        "pipeline", (key, sorted(kwargs.items())), lambda: fit_pipeline(pdf, **kwargs)
    )
