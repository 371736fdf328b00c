"""L1-regularized logistic regression via proximal gradient (ISTA).

The soft-thresholding proximal step produces *exact* zero weights, which is
what makes the paper's model-projection pushdown effective on linear models
(§2.1: "regularization ... ends up creating zero weights"; §7.2.1 sweeps the
regularization strength and counts zero-weight inputs). The intercept is
unpenalized, as in scikit-learn.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.onnx_rt import sigmoid


@dataclass
class LogisticRegression:
    """Minimizes ``mean_logloss(w, b) + l1 * ||w||_1``.

    ``l1`` is the direct penalty weight: larger = stronger regularization =
    more exact-zero weights (the paper's α is an *inverse* strength, mapped
    in the Fig 9 harness).
    """

    l1: float = 0.0
    max_iter: int = 400
    tol: float = 1e-7
    random_state: int = 0

    coef_: np.ndarray | None = field(default=None, repr=False)
    intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        # Lipschitz constant of mean logloss gradient: lambda_max(X'X)/(4n),
        # estimated with a few power iterations.
        v = np.random.default_rng(self.random_state).standard_normal(d)
        v /= np.linalg.norm(v) + 1e-12
        for _ in range(8):
            v = X.T @ (X @ v)
            v /= np.linalg.norm(v) + 1e-12
        lam_max = float(v @ (X.T @ (X @ v)))
        L = max(lam_max / (4 * n), 1e-8)
        step = 1.0 / L

        w = np.zeros(d)
        b = 0.0
        prev_obj = np.inf
        for _ in range(self.max_iter):
            z = X @ w + b
            p = sigmoid(z)
            g_w = X.T @ (p - y) / n
            g_b = float(np.mean(p - y))
            w = _soft_threshold(w - step * g_w, step * self.l1)
            b -= step * g_b
            if _ % 10 == 0:
                eps = 1e-12
                obj = float(
                    -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
                    + self.l1 * np.abs(w).sum()
                )
                if abs(prev_obj - obj) < self.tol * max(1.0, abs(prev_obj)):
                    break
                prev_obj = obj
        self.coef_ = w
        self.intercept_ = float(b)
        return self


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
