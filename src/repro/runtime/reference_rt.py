"""Reference ML runtime — the "Spark + scikit-learn" baseline's engine.

Semantically identical to :mod:`repro.runtime.onnx_rt` but implemented the
straightforward way an external general-purpose ML library evaluates a
pipeline: float64 end-to-end, per-tree recursive mask descent instead of the
level-synchronous batched kernel, dense re-featurization with no column
pruning, and per-batch parameter re-validation. It exists so the Fig 6
comparison "Raven (no-opt) vs Spark+SKL" has a competent-but-slower external
runtime to stand in for scikit-learn (not installed in this environment —
see DESIGN.md substitutions).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ir.graph import Pipeline
from repro.ir.tree import LEAF, Tree
from repro.runtime import onnx_rt
from repro.runtime.onnx_rt import sigmoid


def _tree_values_masked(t: Tree, X: np.ndarray) -> np.ndarray:
    """Recursive partition descent (sklearn-style apply())."""
    out = np.empty((X.shape[0], t.n_out), dtype=np.float64)

    def rec(node: int, idx: np.ndarray) -> None:
        if t.left[node] == LEAF:
            out[idx] = t.value[node]
            return
        f = int(t.feature[node])
        go_left = X[idx, f] <= t.threshold[node]
        rec(int(t.left[node]), idx[go_left])
        rec(int(t.right[node]), idx[~go_left])

    rec(0, np.arange(X.shape[0]))
    return out


def run(p: Pipeline, pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Execute with the reference strategy. Same contract as onnx_rt.run."""
    model = p.model_node
    # Its own featurizer, on purpose: tests compare onnx_rt's shared
    # featurizer against it. float64 throughout, no dtype downcast.
    values: dict[str, np.ndarray] = {}
    for nid in p.topo_order():
        node = p.nodes[nid]
        if node.op in ("linear_classifier", "tree_ensemble"):
            break
        if node.op == "input":
            col = node.attrs["name"]
            if node.attrs["kind"] == "num":
                values[nid] = pdf[col].to_numpy(dtype=np.float64)[:, None]
            else:
                # onnx_rt.category_strings' rule, restated: NULL is 'None'
                s = pdf[col]
                values[nid] = s.astype(str).where(s.notna(), "None").to_numpy()[:, None]
        elif node.op == "constant":
            v = node.attrs["value"]
            values[nid] = (
                np.full((len(pdf), 1), v, dtype=object)
                if isinstance(v, str)
                else np.full((len(pdf), 1), float(v))
            )
        elif node.op == "scaler":
            values[nid] = (values[node.inputs[0]] - node.attrs["offset"]) * node.attrs[
                "scale"
            ]
        elif node.op == "onehot":
            col = values[node.inputs[0]][:, 0]
            cats = node.attrs["categories"]
            # index lookup + dense integer comparison (vs the scatter
            # kernel in onnx_rt) — a competent generic implementation
            codes = pd.Index(cats).get_indexer(pd.Index(col))
            values[nid] = (
                codes[:, None] == np.arange(len(cats))[None, :]
            ).astype(np.float64)
        elif node.op == "concat":
            values[nid] = np.hstack([values[i] for i in node.inputs])
        elif node.op == "feature_extractor":
            values[nid] = values[node.inputs[0]][:, node.attrs["indices"]]

    X = np.hstack([values[i] for i in model.inputs])
    if model.op == "linear_classifier":
        margin = X @ model.attrs["coef"] + model.attrs["intercept"]
        return (margin > 0).astype(np.int64), sigmoid(margin)

    trees = model.attrs["trees"]
    if model.attrs["kind"] == "gb":
        margin = np.full(X.shape[0], model.attrs["base_score"], dtype=np.float64)
        for t in trees:
            margin += _tree_values_masked(t, X)[:, 0]
        return (margin > 0).astype(np.int64), sigmoid(margin)
    acc = np.zeros((X.shape[0], trees[0].n_out))
    for t in trees:
        acc += _tree_values_masked(t, X)
    proba = acc / len(trees)
    label = np.argmax(proba, axis=1).astype(np.int64)
    return label, proba[:, 1] if proba.shape[1] > 1 else proba[:, 0]


def agrees_with_onnx_rt(p: Pipeline, pdf: pd.DataFrame, atol: float = 1e-6) -> bool:
    """Fidelity check helper used by tests."""
    l1, s1 = run(p, pdf)
    l2, s2 = onnx_rt.run(p, pdf)
    return bool(np.array_equal(l1, l2) and np.allclose(s1, s2, atol=atol))
