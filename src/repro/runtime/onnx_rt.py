"""Vectorized IR interpreter — the "ONNX Runtime" of this reproduction.

Evaluates a :class:`repro.ir.graph.Pipeline` over an Arrow record batch the
way Raven's UDF drives ONNX Runtime (§6): columnar input, batch-at-a-time,
single-precision feature matrices, all trees of an ensemble traversed at
once (Hummingbird's TreeTraversal layout, the batched analogue of ONNX
Runtime's TreeEnsemble kernel), BLAS matvec for linear models.

:func:`featurize` is the one definition of the model's input vector:
training (:func:`repro.ml.pipeline.fit_pipeline`) builds its matrix with
it, the tensor runtime (:mod:`repro.runtime.dnn_rt`) calls it too, and the
pruning rules (:mod:`repro.core.predicate_pruning`) evaluate it at
predicate bounds, so a slot's value is computed by the same operations
everywhere. It reads a ``pyarrow.RecordBatch`` (one-hot codes come from
``pyarrow.compute``, never from Python strings); a pandas frame goes
through :func:`arrow_batch` first. :func:`predict` is the model kernel and
:class:`TreeStack` its tree traversal, which ``dnn_rt``'s traversal
strategy runs too. The reference runtime
(:mod:`repro.runtime.reference_rt`) deliberately keeps its own.

Returns ``(label, score)`` with ``score = P(class 1)`` for binary models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from repro.ir.graph import MODEL_OPS, Node, Pipeline
from repro.ir.tree import LEAF, Tree
from repro.ml.ensemble import sigmoid

Batch = pa.RecordBatch | pd.DataFrame


def run(p: Pipeline, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Execute ``p`` over ``batch``; returns (label int64, score float64)."""
    return predict(p.model_node, featurize(p, batch))


def arrow_batch(p: Pipeline, pdf: pd.DataFrame) -> pa.RecordBatch:
    """The pandas adapter: ``p``'s input columns of ``pdf`` as an Arrow
    batch. Numeric inputs become float64; categorical ones become strings
    by pandas' ``astype(str)`` (NULL -> ``'None'``, ``1`` -> ``'1'``,
    ``1.0`` -> ``'1.0'``)."""
    cols = {}
    for n in p.nodes.values():
        if n.op == "input":
            s = pdf[n.attrs["name"]]
            if n.attrs["kind"] == "num":
                cols[n.attrs["name"]] = pa.array(s.to_numpy(dtype=np.float64))
            else:
                cols[n.attrs["name"]] = pa.array(s.astype(str).to_numpy(), pa.string())
    # a pipeline without inputs still sees the batch's row count
    return pa.RecordBatch.from_pydict(cols or {"_": pa.nulls(len(pdf))})


def _strings(col: pa.Array) -> pa.Array:
    """A categorical column as Arrow strings, NULL as ``'None'``; a
    non-string column is rendered by the pandas adapter's rule."""
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        return pa.array(col.to_pandas().astype(str).to_numpy(), pa.string())
    return pc.fill_null(col, "None") if col.null_count else col


def _codes(col: pa.Array, categories: list[str]) -> np.ndarray:
    """Each value's position among ``categories``, -1 outside them. A
    dictionary column is looked up as its decoded strings would be: its
    dictionary once, then a take by index (a NULL index is ``'None'``)."""
    if pa.types.is_dictionary(col.type):
        lookup = _codes(col.dictionary, categories)
        null_code = categories.index("None") if "None" in categories else -1
        idx = col.indices
        if col.null_count:
            idx = pc.fill_null(idx.cast(pa.int64()), len(lookup))
        return np.append(lookup, null_code)[idx.to_numpy()]
    col = _strings(col)
    codes = pc.index_in(col, value_set=pa.array(categories, col.type))
    return (pc.fill_null(codes, -1) if codes.null_count else codes).to_numpy()


def _onehot(col: pa.Array, categories: list[str]) -> np.ndarray:
    """Indicator block, one row per category: hash lookup of each value
    among ``categories``; a value outside them sets no indicator."""
    codes = _codes(col, categories)
    out = np.zeros((len(categories), len(col)), dtype=np.float64)
    rows = np.flatnonzero(codes >= 0)
    out[codes[rows], rows] = 1.0
    return out


def featurize(p: Pipeline, batch: Batch) -> np.ndarray:
    """The model-input matrix for ``batch``: float64, one column per slot,
    column-major (each slot is built as one contiguous row of its
    transpose).

    A categorical value outside a one-hot's categories (NULL included: it
    becomes the string ``'None'``) sets none of that block's indicators;
    a numeric NULL is NaN. A dictionary-encoded categorical column gives
    the same matrix as its decoded strings.
    """
    if isinstance(batch, pd.DataFrame):
        batch = arrow_batch(p, batch)
    n = batch.num_rows
    values: dict[str, np.ndarray | pa.Array] = {}  # (width, n) blocks
    for nid in p.topo_order():
        node = p.nodes[nid]
        op = node.op
        if op == "input":
            col = batch.column(node.attrs["name"])
            if node.attrs["kind"] == "num":
                x = col.to_numpy(zero_copy_only=False)
                values[nid] = x.astype(np.float64, copy=False)[None, :]
            else:
                values[nid] = col
        elif op == "constant":
            v = node.attrs["value"]
            if isinstance(v, str):
                values[nid] = pa.repeat(v, n)
            else:
                values[nid] = np.full((1, n), float(v))
        elif op == "scaler":
            off = np.reshape(node.attrs["offset"], (-1, 1))
            sc = np.reshape(node.attrs["scale"], (-1, 1))
            values[nid] = (values[node.inputs[0]] - off) * sc
        elif op == "onehot":
            values[nid] = _onehot(values[node.inputs[0]], node.attrs["categories"])
        elif op == "concat":
            values[nid] = np.concatenate([values[i] for i in node.inputs])
        elif op == "feature_extractor":
            values[nid] = values[node.inputs[0]][node.attrs["indices"]]
        elif op in MODEL_OPS:
            return values[node.inputs[0]].T
        else:  # pragma: no cover - graph validation rules this out
            raise ValueError(f"unknown op {op}")
    raise ValueError("pipeline has no model node")


@dataclass
class TreeStack:
    """Every tree of an ensemble in one set of flat node arrays.

    Node ``i`` of tree ``t`` is row ``offset[t] + i``. ``children`` holds
    ``(right, left)`` per node and leaves point at themselves, so ``depth``
    gather steps park every row at its leaf in every tree at once, whatever
    the trees' shapes.
    """

    feature: np.ndarray  # (nodes,) intp
    threshold: np.ndarray  # (nodes,)
    children: np.ndarray  # (2 * nodes,) intp: right, left
    value: np.ndarray  # (nodes, n_out)
    roots: np.ndarray  # (T,) intp
    depth: int

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """(T, n) stacked leaf ids: ``x[feature] <= threshold`` goes left,
        so a NaN goes right."""
        n = X.shape[0]
        flat = np.asfortranarray(X).ravel(order="F")  # slot-major
        col = self.feature * n
        row = np.arange(n, dtype=np.intp)
        idx = np.repeat(self.roots[:, None], n, axis=1)
        for _ in range(self.depth):
            x = flat.take(col.take(idx) + row)
            go_left = x <= self.threshold.take(idx)
            idx = self.children.take(2 * idx + go_left)
        return idx

    def payload_sum(self, X: np.ndarray, start: float) -> np.ndarray:
        """(n, n_out) float64: ``start`` plus each tree's leaf payload,
        added in tree order."""
        vals = self.value.take(self.leaves(X), axis=0)  # (T, n, n_out)
        acc = np.full(vals.shape[1:], start, dtype=np.float64)
        for v in vals:
            acc += v
        return acc


def stack_trees(
    trees: list[Tree], thresholds: list[np.ndarray] | None = None, dtype=np.float64
) -> TreeStack:
    """Stack ``trees`` for :meth:`TreeStack.leaves`; thresholds and
    payloads are held in ``dtype``, thresholds taken from ``thresholds``
    (one array per tree) when given."""
    sizes = np.array([t.n_nodes for t in trees])
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    left = np.concatenate([t.left for t in trees]).astype(np.intp)
    right = np.concatenate([t.right for t in trees]).astype(np.intp)
    offset = np.repeat(roots, sizes)
    is_leaf = left == LEAF
    self_id = np.arange(len(left), dtype=np.intp)
    children = np.empty(2 * len(left), dtype=np.intp)
    children[0::2] = np.where(is_leaf, self_id, right + offset)
    children[1::2] = np.where(is_leaf, self_id, left + offset)
    depth, frontier = 0, roots[~is_leaf[roots]]
    while frontier.size:
        depth += 1
        frontier = np.concatenate([children[2 * frontier], children[2 * frontier + 1]])
        frontier = frontier[~is_leaf[frontier]]
    return TreeStack(
        feature=np.where(is_leaf, 0, np.concatenate([t.feature for t in trees])),
        threshold=np.concatenate(
            thresholds or [t.threshold for t in trees]
        ).astype(dtype),
        children=children,
        value=np.concatenate([t.value for t in trees]).astype(dtype),
        roots=roots,
        depth=depth,
    )


def predict(model: Node, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model kernel over the featurized matrix ``X``.

    Trees compare the float32 cast of each slot against float64 thresholds
    and add their float64 payloads in tree order; linear models take ``X``
    as it is.
    """
    if model.op == "linear_classifier":
        return binary_output(X @ model.attrs["coef"] + model.attrs["intercept"])
    trees = model.attrs["trees"]
    kind = model.attrs["kind"]
    base = model.attrs["base_score"] if kind == "gb" else 0.0
    acc = stack_trees(trees).payload_sum(X.astype(np.float32), base)
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
