"""MLtoDNN tensor runtime — Hummingbird's strategies in NumPy (§5.1).

Two tensor compilation strategies, chosen per tree size exactly as
Hummingbird does (Nakandala et al., OSDI'20):

**GEMM** (small trees):

- ``S = (X @ A) <= B``: A one-hot-encodes split features over internal
  nodes, B holds thresholds; S says, per row, which splits route left.
- ``T = S @ C``; leaf ``l`` is reached iff ``T[l] == D[l]`` where C holds
  +1 for left-edge ancestors, -1 for right-edge ancestors, and D counts
  left-edge ancestors.
- ``Y = onehot(T == D) @ V``: gather leaf payloads.

**TreeTraversal** (larger trees, where GEMM's dense node-by-feature
matrices explode): all trees stacked into flat node arrays and traversed
level-synchronously with batched gather ops — ``depth`` tensor iterations
instead of ``n_trees x depth`` scalar-driven loops. The traversal is the ML
runtime's own (:class:`repro.runtime.onnx_rt.TreeStack`), held in float32.

Featurization is not compiled here: :meth:`DnnModel.predict` calls the
shared featurizer :func:`repro.runtime.onnx_rt.featurize` and casts its
matrix to float32, and the ensemble output (gb margin or averaged class
probabilities) goes through :func:`repro.runtime.onnx_rt.ensemble_output`.

The "DNN runtime" here is NumPy — the tensor-kernel substitute for
PyTorch/ORT in this container (see DESIGN.md). :mod:`repro.runtime.gpu_sim`
prices the same tensor program on a modeled GPU.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.graph import Pipeline
from repro.ir.tree import LEAF, Tree
from repro.runtime import onnx_rt


@dataclass
class TreeGemm:
    """Dense tensors for one tree (single-leaf trees keep ``A`` empty)."""

    A: np.ndarray  # (d, I)
    B: np.ndarray  # (I,)
    C: np.ndarray  # (I, L)
    D: np.ndarray  # (L,)
    V: np.ndarray  # (L, n_out)

    def run(self, X: np.ndarray) -> np.ndarray:
        if self.A.shape[1] == 0:  # no internal nodes
            return np.broadcast_to(self.V[0], (X.shape[0], self.V.shape[1])).copy()
        S = (X @ self.A <= self.B).astype(np.float32)
        T = S @ self.C
        hit = (T == self.D).astype(np.float32)
        return hit @ self.V

    def flops(self, n_rows: int) -> int:
        d, i = self.A.shape
        l, o = self.V.shape
        return 2 * n_rows * (d * i + i * l + l * o)

    def param_bytes(self) -> int:
        return sum(m.nbytes for m in (self.A, self.B, self.C, self.D, self.V))


def _f32_at_most(threshold: np.ndarray) -> np.ndarray:
    """The largest float32 at or below each threshold: for a float32 ``x``,
    ``x <= _f32_at_most(t)`` exactly when ``x <= t``, the float64
    comparison of :func:`repro.runtime.onnx_rt.predict` (rounding ``t`` to
    nearest would move rows that sit on the rounded value)."""
    t = np.asarray(threshold, dtype=np.float64)
    t32 = t.astype(np.float32)
    return np.where(t32 > t, np.nextafter(t32, np.float32(-np.inf)), t32)


def compile_tree(t: Tree, n_features: int) -> TreeGemm:
    internal = [n for n in range(t.n_nodes) if t.left[n] != LEAF]
    leaves = [n for n in range(t.n_nodes) if t.left[n] == LEAF]
    int_pos = {n: i for i, n in enumerate(internal)}
    leaf_pos = {n: i for i, n in enumerate(leaves)}
    I, L = len(internal), len(leaves)

    A = np.zeros((n_features, I), dtype=np.float32)
    for n, i in int_pos.items():
        A[int(t.feature[n]), i] = 1.0
    B = _f32_at_most(t.threshold[internal])
    C = np.zeros((I, L), dtype=np.float32)
    D = np.zeros(L, dtype=np.float32)

    def walk(node: int, path: list[tuple[int, int]]) -> None:
        if t.left[node] == LEAF:
            li = leaf_pos[node]
            for anc, sign in path:
                C[int_pos[anc], li] = sign
            D[li] = sum(1 for _, s in path if s > 0)
            return
        walk(int(t.left[node]), path + [(node, +1)])
        walk(int(t.right[node]), path + [(node, -1)])

    walk(0, [])
    V = t.value[leaves].astype(np.float32)
    return TreeGemm(A, B, C, D, V)


#: Hummingbird-style strategy cutoff: trees with more internal nodes than
#: this use the traversal strategy instead of dense GEMM.
GEMM_MAX_INTERNAL = 16


@dataclass
class TreeTravEnsemble:
    """The TreeTraversal strategy: every tree stacked into flat node arrays
    (:class:`repro.runtime.onnx_rt.TreeStack`, the ML runtime's own
    traversal) with float32 thresholds and payloads, so ``depth`` gather
    iterations park every row at its leaf in every tree at once."""

    stack: onnx_rt.TreeStack

    @property
    def n_trees(self) -> int:
        return self.stack.n_trees

    @property
    def depth(self) -> int:
        return max(self.stack.depth, 1)

    def run_sum(self, X: np.ndarray) -> np.ndarray:
        """Sum of per-tree leaf payloads: (n, n_out) float64."""
        return self.stack.payload_sum(X, 0.0)

    def flops(self, n_rows: int) -> int:
        # gather/compare/select ops per level, per row, per tree
        return 8 * n_rows * self.n_trees * self.depth

    def mem_bytes(self, n_rows: int) -> int:
        # 4 gathers x 4B + index updates per level
        return 24 * n_rows * self.n_trees * self.depth

    def param_bytes(self) -> int:
        # per node an int32 feature, left and right and a float32 threshold
        return 16 * len(self.stack.feature) + self.stack.value.nbytes


def compile_traversal(trees: list[Tree]) -> TreeTravEnsemble:
    thresholds = [_f32_at_most(t.threshold) for t in trees]
    return TreeTravEnsemble(onnx_rt.stack_trees(trees, thresholds, np.float32))


@dataclass
class DnnModel:
    """The tensorized pipeline: the shared featurizer
    (:func:`repro.runtime.onnx_rt.featurize`, cast to float32) + GEMM or
    traversal tree program / dense linear layer."""

    pipeline: Pipeline
    trees: list[TreeGemm] = field(default_factory=list)
    trav: TreeTravEnsemble | None = None  # traversal strategy (big trees)
    kind: str = "dt"  # dt | rf | gb | lr
    strategy: str = "gemm"  # gemm | traversal | linear
    n_trees: int = 0
    base_score: float = 0.0
    coef: np.ndarray | None = None
    intercept: float = 0.0
    n_features: int = 0

    # -- execution ------------------------------------------------------
    def predict(self, batch: onnx_rt.Batch) -> tuple[np.ndarray, np.ndarray]:
        """(label, score) for an Arrow batch or a pandas frame."""
        X = onnx_rt.featurize(self.pipeline, batch).astype(np.float32)
        if self.kind == "lr":
            return onnx_rt.binary_output(X @ self.coef + self.intercept)
        if self.strategy == "traversal":
            acc = self.trav.run_sum(X)
        else:
            acc = np.zeros((X.shape[0], self.trees[0].V.shape[1]), dtype=np.float64)
            for tg in self.trees:
                acc += tg.run(X)
        return onnx_rt.ensemble_output(self.kind, acc + self.base_score, self.n_trees)

    # -- cost metadata for the GPU model --------------------------------
    def flops(self, n_rows: int) -> int:
        if self.kind == "lr":
            return 2 * n_rows * len(self.coef)
        if self.strategy == "traversal":
            return self.trav.flops(n_rows)
        return int(sum(t.flops(n_rows) for t in self.trees))

    def mem_bytes(self, n_rows: int) -> int:
        """Device memory traffic (roofline memory term)."""
        if self.strategy == "traversal":
            return self.trav.mem_bytes(n_rows)
        return self.input_bytes(n_rows) + self.param_bytes()

    def param_bytes(self) -> int:
        if self.kind == "lr":
            return int(self.coef.nbytes)
        if self.strategy == "traversal":
            return self.trav.param_bytes()
        return int(sum(t.param_bytes() for t in self.trees))

    def input_bytes(self, n_rows: int) -> int:
        return 4 * n_rows * self.n_features


def compile_to_dnn(p: Pipeline) -> DnnModel:
    """MLtoDNN entry point: IR pipeline -> tensorized model."""
    model = p.model_node
    d = p.n_model_features()
    if model.op == "linear_classifier":
        return DnnModel(
            pipeline=p,
            kind="lr",
            coef=np.asarray(model.attrs["coef"], dtype=np.float32),
            intercept=float(model.attrs["intercept"]),
            n_features=d,
        )
    trees = model.attrs["trees"]
    max_internal = max(t.n_nodes - t.n_leaves for t in trees)
    if max_internal > GEMM_MAX_INTERNAL:
        return DnnModel(
            pipeline=p,
            trav=compile_traversal(trees),
            kind=model.attrs["kind"],
            strategy="traversal",
            n_trees=len(trees),
            base_score=float(model.attrs.get("base_score", 0.0)),
            n_features=d,
        )
    return DnnModel(
        pipeline=p,
        trees=[compile_tree(t, d) for t in trees],
        kind=model.attrs["kind"],
        strategy="gemm",
        n_trees=len(trees),
        base_score=float(model.attrs.get("base_score", 0.0)),
        n_features=d,
    )
