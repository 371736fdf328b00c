"""Featurizers (scikit-learn preprocessing substitute).

The paper's trained pipelines normalize numeric inputs with standard scaling
and encode categorical inputs with one-hot encoding (§7, "Trained
pipelines"). These fitted featurizers are what the IR builder exports as
Scaler / OneHotEncoder nodes, so their parameter layout matches the ONNX
operators: Scaler holds per-column ``offset``/``scale``; OneHotEncoder holds
the fitted category list of a single column.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class StandardScaler:
    """Per-column ``(x - mean) / std`` over a numeric matrix."""

    mean_: np.ndarray | None = field(default=None, repr=False)
    scale_: np.ndarray | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 1e-12, 1.0 / np.where(std > 1e-12, std, 1.0), 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean_) * self.scale_


@dataclass
class OneHotEncoder:
    """One-hot encoder for a *single* categorical column (ONNX layout:
    one OneHotEncoder node per input column). Unknown categories at
    transform time encode to the all-zero vector (handle_unknown=ignore)."""

    categories_: list = field(default_factory=list)

    def fit(self, values) -> "OneHotEncoder":
        self.categories_ = sorted(pd.unique(pd.Series(values).astype(str)))
        return self

    def transform(self, values) -> np.ndarray:
        v = pd.Series(values).astype(str).to_numpy()
        cats = np.asarray(self.categories_, dtype=object)
        return (v[:, None] == cats[None, :]).astype(np.float64)

    @property
    def n_categories(self) -> int:
        return len(self.categories_)
