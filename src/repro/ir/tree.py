"""Array-based decision-tree structure shared by the ML learners and the IR.

A :class:`Tree` is the unit the Raven optimizer manipulates: predicate-based
model pruning rewrites it against per-feature intervals, model-projection
pushdown densifies its feature indices, and MLtoSQL/MLtoDNN compile it to
CASE expressions / GEMM matrices. The layout mirrors ONNX's
``TreeEnsembleClassifier`` (and sklearn's ``tree_``): parallel arrays indexed
by node id, with the decision rule ``x[feature] <= threshold -> left``.

A tree holds structure only and has no evaluation of its own: training, the
§5.2 strategies and serving all route rows through the one model kernel,
:class:`repro.runtime.onnx_rt.TreeStack`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sentinel child id marking a leaf.
LEAF = -1


@dataclass
class Tree:
    """A single binary decision tree over a dense feature vector.

    Attributes
    ----------
    feature : (n_nodes,) int32 — split feature index (undefined at leaves).
    threshold : (n_nodes,) float64 — split threshold (undefined at leaves).
    left, right : (n_nodes,) int32 — child ids, ``LEAF`` at leaves.
    value : (n_nodes, n_out) float64 — payload, valid at leaves. For
        classification trees this is the class-probability vector; for
        boosted regression trees it is a 1-wide margin (learning rate
        already folded in by ``repro.ml.ensemble.GradientBoosting.fit``).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.atleast_2d(np.asarray(self.value, dtype=np.float64))
        if self.value.shape[0] != self.feature.shape[0]:
            raise ValueError("value must have one row per node")

    # -- basic structure --------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_out(self) -> int:
        return int(self.value.shape[1])

    def is_leaf(self, node: int) -> bool:
        return self.left[node] == LEAF

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.left == LEAF))

    def depth(self) -> int:
        """Maximum root-to-leaf edge count (a lone leaf has depth 0)."""

        def rec(node: int) -> int:
            if self.is_leaf(node):
                return 0
            return 1 + max(rec(int(self.left[node])), rec(int(self.right[node])))

        return rec(0)

    def used_features(self) -> np.ndarray:
        """Sorted unique feature indices appearing at internal nodes."""
        internal = self.left != LEAF
        return np.unique(self.feature[internal])

    # -- rewrites (all return new trees; inputs are never mutated) --------
    def prune_with_intervals(self, lo: np.ndarray, hi: np.ndarray) -> "Tree":
        """Predicate-based pruning (§4.1 / §4.2 of the paper).

        ``lo[f] <= x[f] <= hi[f]`` is known to hold for every scored row
        (from WHERE predicates or data statistics). Any split decided by its
        interval is collapsed to the reachable child; intervals are tightened
        while descending so nested splits on the same feature also collapse.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)

        feats, thrs, lefts, rights, values = [], [], [], [], []

        def build(node: int, lo: np.ndarray, hi: np.ndarray) -> int:
            if self.is_leaf(node):
                new = len(feats)
                feats.append(0)
                thrs.append(0.0)
                lefts.append(LEAF)
                rights.append(LEAF)
                values.append(self.value[node])
                return new
            f = int(self.feature[node])
            t = float(self.threshold[node])
            if hi[f] <= t:  # every value goes left
                return build(int(self.left[node]), lo, hi)
            if lo[f] > t:  # every value goes right
                return build(int(self.right[node]), lo, hi)
            new = len(feats)
            feats.append(f)
            thrs.append(t)
            lefts.append(-2)  # patched below
            rights.append(-2)
            values.append(self.value[node])
            hi_l = hi.copy()
            hi_l[f] = min(hi_l[f], t)
            lo_r = lo.copy()
            lo_r[f] = max(lo_r[f], np.nextafter(t, np.inf))
            lefts[new] = build(int(self.left[node]), lo, hi_l)
            rights[new] = build(int(self.right[node]), lo_r, hi)
            return new

        build(0, lo, hi)  # emits the (surviving) root first, at index 0
        return Tree(
            np.array(feats), np.array(thrs), np.array(lefts), np.array(rights),
            np.array(values),
        )

    def remap_features(self, mapping: dict[int, int]) -> "Tree":
        """Densification step of model-projection pushdown: renumber split
        feature indices (e.g. ``{0: 0, 4: 1, 5: 2}`` in the paper's Fig 3)."""
        feature = self.feature.copy()
        internal = self.left != LEAF
        feature[internal] = np.array(
            [mapping[int(f)] for f in self.feature[internal]], dtype=np.int32
        )
        return Tree(feature, self.threshold, self.left, self.right, self.value)

    def collapse_unsatisfying(self, keep_leaf: np.ndarray) -> "Tree":
        """Output-predicate pruning (§4.1): ``keep_leaf[node]`` marks leaves
        whose payload satisfies the predicate on the model output. Maximal
        subtrees containing **no** satisfying leaf collapse to a single
        representative (rejected) leaf — rows routed there are filtered out
        by the query anyway, so only the *rejected* property must survive.
        """

        # Post-order pass: does any leaf under each node satisfy the predicate?
        keep_sub = np.zeros(self.n_nodes, dtype=bool)
        stack: list[tuple[int, bool]] = [(0, False)]
        while stack:
            node, expanded = stack.pop()
            if self.is_leaf(node):
                keep_sub[node] = bool(keep_leaf[node])
            elif not expanded:
                stack.append((node, True))
                stack.append((int(self.left[node]), False))
                stack.append((int(self.right[node]), False))
            else:
                keep_sub[node] = (
                    keep_sub[int(self.left[node])] or keep_sub[int(self.right[node])]
                )

        def any_keep(node: int) -> bool:
            return bool(keep_sub[node])

        def first_leaf(node: int) -> int:
            while not self.is_leaf(node):
                node = int(self.left[node])
            return node

        feats, thrs, lefts, rights, values = [], [], [], [], []

        def build(node: int) -> int:
            new = len(feats)
            if self.is_leaf(node) or not any_keep(node):
                rep = node if self.is_leaf(node) else first_leaf(node)
                feats.append(0)
                thrs.append(0.0)
                lefts.append(LEAF)
                rights.append(LEAF)
                values.append(self.value[rep])
                return new
            feats.append(int(self.feature[node]))
            thrs.append(float(self.threshold[node]))
            lefts.append(-2)
            rights.append(-2)
            values.append(self.value[node])
            lefts[new] = build(int(self.left[node]))
            rights[new] = build(int(self.right[node]))
            return new

        build(0)
        return Tree(
            np.array(feats), np.array(thrs), np.array(lefts), np.array(rights),
            np.array(values),
        )


def leaf_tree(value: np.ndarray) -> Tree:
    """A degenerate single-leaf tree with the given payload."""
    return Tree(
        np.array([0]), np.array([0.0]), np.array([LEAF]), np.array([LEAF]),
        np.atleast_2d(np.asarray(value, dtype=np.float64)),
    )
