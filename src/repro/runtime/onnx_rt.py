"""Vectorized IR interpreter — the "ONNX Runtime" of this reproduction.

Evaluates a :class:`repro.ir.graph.Pipeline` over a pandas batch exactly the
way Raven's UDF drives ONNX Runtime (§6): columnar input, batch-at-a-time,
single-precision feature matrices, level-synchronous tree traversal (the
batched analogue of ONNX Runtime's TreeEnsemble kernel), BLAS matvec for
linear models.

:func:`featurize` is the one definition of the model's input vector: the
tensor runtime (:mod:`repro.runtime.dnn_rt`) calls it too, and the pruning
rules (:mod:`repro.core.predicate_pruning`) evaluate it at predicate bounds,
so a slot's value is computed by the same operations everywhere.
:func:`predict` is the model kernel. The reference runtime
(:mod:`repro.runtime.reference_rt`) deliberately keeps its own.

Returns ``(label, score)`` with ``score = P(class 1)`` for binary models.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ir.graph import MODEL_OPS, Node, Pipeline
from repro.ml.ensemble import sigmoid


def run(p: Pipeline, pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Execute ``p`` over ``pdf``; returns (label int64, score float64)."""
    return predict(p.model_node, featurize(p, pdf))


def featurize(p: Pipeline, pdf: pd.DataFrame) -> np.ndarray:
    """The model-input matrix for ``pdf``: float64, one column per slot.

    A categorical value outside a one-hot's categories (NULL included: it
    becomes the string ``'None'``) sets none of that block's indicators.
    """
    n = len(pdf)
    values: dict[str, np.ndarray] = {}
    for nid in p.topo_order():
        node = p.nodes[nid]
        op = node.op
        if op == "input":
            col = node.attrs["name"]
            if node.attrs["kind"] == "num":
                values[nid] = pdf[col].to_numpy(dtype=np.float64)[:, None]
            else:
                values[nid] = pdf[col].astype(str).to_numpy()[:, None]
        elif op == "constant":
            v = node.attrs["value"]
            if isinstance(v, str):
                values[nid] = np.full((n, 1), v, dtype=object)
            else:
                values[nid] = np.full((n, 1), float(v))
        elif op == "scaler":
            x = values[node.inputs[0]]
            values[nid] = (x - node.attrs["offset"]) * node.attrs["scale"]
        elif op == "onehot":
            col = values[node.inputs[0]][:, 0]
            cats = node.attrs["categories"]
            # hash-indexed scatter (the tuned-kernel path): O(n) lookups
            # instead of an n x |categories| object comparison
            codes = pd.Index(cats).get_indexer(pd.Index(col))
            out = np.zeros((n, len(cats)), dtype=np.float64)
            rows = np.flatnonzero(codes >= 0)
            out[rows, codes[rows]] = 1.0
            values[nid] = out
        elif op == "concat":
            values[nid] = np.hstack([values[i] for i in node.inputs])
        elif op == "feature_extractor":
            values[nid] = values[node.inputs[0]][:, node.attrs["indices"]]
        elif op in MODEL_OPS:
            return values[node.inputs[0]]
        else:  # pragma: no cover - graph validation rules this out
            raise ValueError(f"unknown op {op}")
    raise ValueError("pipeline has no model node")


def predict(model: Node, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model kernel over the featurized matrix ``X``.

    Trees compare the float32 cast of each slot against float64 thresholds;
    linear models take ``X`` as it is.
    """
    if model.op == "linear_classifier":
        return binary_output(X @ model.attrs["coef"] + model.attrs["intercept"])
    X = np.ascontiguousarray(X, dtype=np.float32)
    trees = model.attrs["trees"]
    kind = model.attrs["kind"]
    base = model.attrs["base_score"] if kind == "gb" else 0.0
    acc = np.full((X.shape[0], trees[0].n_out), base)
    for t in trees:
        acc += t.predict_value(X)
    return ensemble_output(kind, acc, len(trees))


def binary_output(margin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(label, score) from a binary margin: label ``margin > 0``, score its sigmoid."""
    return (margin > 0).astype(np.int64), sigmoid(margin)


def ensemble_output(
    kind: str, acc: np.ndarray, n_trees: int
) -> tuple[np.ndarray, np.ndarray]:
    """(label, score) from leaf payloads summed over the trees.

    gb: ``acc`` is the margin (base score included); dt / rf: averaged
    class probabilities, argmax label.
    """
    if kind == "gb":
        return binary_output(acc[:, 0])
    proba = acc / n_trees
    label = np.argmax(proba, axis=1).astype(np.int64)
    score = proba[:, 1] if proba.shape[1] > 1 else proba[:, 0]
    return label, score


def predict_frame(p: Pipeline, pdf: pd.DataFrame) -> pd.DataFrame:
    """Convenience: batch in, ``prediction``/``score`` columns out."""
    label, score = run(p, pdf)
    return pd.DataFrame({"prediction": label, "score": score}, index=pdf.index)
