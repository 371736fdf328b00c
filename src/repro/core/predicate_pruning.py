"""Predicate-based model pruning (§4.1, data-to-model rule).

Given the WHERE predicates of a prediction query, this rule:

Step 1 — binds every model input with an equality predicate to a Constant
node (so the column no longer needs to be fed to — or scanned for — the
model) and records range predicates.

Step 2 — :func:`prune_model`, the one pruning routine (data-induced
pruning, :mod:`repro.core.data_induced`, calls it with column statistics):
bounds every model-input slot (:mod:`repro.ir.slots`) given the remaining
range predicates — ``asthma=1`` becomes a known ``[0,1]`` one-hot vector,
``age <= 60`` the range of ``(age-offset)*scale`` under a Scaler — then
prunes every tree of a tree-based model against those bounds, and
constant-folds linear models (known slots fold into the intercept).

Bounds are computed in the runtime's own arithmetic: numeric slots by the
shared featurizer :func:`repro.runtime.onnx_rt.featurize` evaluated at the
predicate bounds, cast to float32 for trees as the tree kernel casts them.
So a row on a bound keeps its label even when the bound sits on a split
(:func:`slot_bounds`).

Also implements the paper's *output-predicate* variant: an equality
predicate on the model's prediction collapses subtrees with no satisfying
leaf.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.ir.graph import Node, Pipeline
from repro.ir.slots import Slot, model_input_slots
from repro.ir.tree import Tree
from repro.runtime import onnx_rt


@dataclass
class Predicate:
    """A conjunct of the query's WHERE clause: ``col op value``."""

    col: str
    op: str  # "=", "<", "<=", ">", ">="
    value: object

    def as_range(self) -> tuple | None:
        """Normalize to the slot-interval encoding of repro.ir.slots;
        ``None`` for a range with a non-numeric bound (``c >= 'b'``), which
        bounds no slot."""
        if self.op == "=":
            return ("eq", self.value)
        try:
            v = float(self.value)
        except (TypeError, ValueError):
            return None
        if self.op in ("<", "<="):
            return ("range", -np.inf, v)
        return ("range", v, np.inf)


@dataclass
class PruneResult:
    pipeline: Pipeline
    bound_inputs: dict[str, object] = field(default_factory=dict)
    pruned_nodes: int = 0  # total tree nodes removed


def merge_predicates(preds: list[Predicate]) -> dict[str, tuple]:
    """Conjunction of predicates per column -> slot-interval encoding."""
    out: dict[str, tuple] = {}
    for p in preds:
        cur = p.as_range()
        if cur is None:
            continue
        prev = out.get(p.col)
        if prev is None:
            out[p.col] = cur
        elif prev[0] == "eq" or cur[0] == "eq":
            out[p.col] = prev if prev[0] == "eq" else cur
        else:  # intersect ranges
            out[p.col] = (
                "range", max(prev[1], cur[1]), min(prev[2], cur[2])
            )
    return out


def apply_predicate_pruning(p: Pipeline, predicates: list[Predicate]) -> PruneResult:
    """Returns an equivalent-on-qualifying-rows pipeline, possibly smaller.

    Falls back to the unchanged pipeline when slot provenance cannot be
    resolved (unsupported graph shape) — "executed but not optimized".
    """
    p = p.clone()
    if not predicates:
        return PruneResult(p)
    merged = merge_predicates(predicates)
    input_cols = set(p.input_cols)
    merged = {c: v for c, v in merged.items() if c in input_cols}
    if not merged:
        return PruneResult(p)

    # Step 1: bind equality-predicate inputs to Constant nodes.
    bound: dict[str, object] = {}
    for node in list(p.nodes.values()):
        if node.op != "input":
            continue
        col = node.attrs["name"]
        pred = merged.get(col)
        if pred is None or pred[0] != "eq":
            continue
        value = pred[1]
        if node.attrs["kind"] == "num":
            try:
                value = float(value)
            except (TypeError, ValueError):
                # ``x = 'b'`` on a numeric input bounds nothing, as a
                # non-numeric range does (:meth:`Predicate.as_range`)
                del merged[col]
                continue
        p.nodes[node.id] = Node("constant", [], {"value": value}, id=node.id)
        bound[col] = value
    p = p.gc()

    # Step 2: bound every slot, then prune the model against the bounds.
    return PruneResult(p, bound, prune_model(p, merged))


def prune_model(p: Pipeline, predicates: dict[str, tuple]) -> int:
    """Prune ``p``'s model in place against per-column ``predicates``.

    The one pruning routine of both rules: tree models drop every split
    their slot bounds decide, linear models fold exactly-known slots into
    the intercept. Returns the tree nodes removed (linear: the nonzero
    coefficients folded). A graph whose slot provenance cannot be resolved
    is left as it is — "executed but not optimized".
    """
    try:
        slots = model_input_slots(p)
    except ValueError:
        return 0
    model = p.model_node
    if model.op == "tree_ensemble":
        lo, hi = slot_bounds(p, slots, predicates, np.float32)
        trees = model.attrs["trees"]
        model.attrs["trees"] = [t.prune_with_intervals(lo, hi) for t in trees]
        return sum(t.n_nodes for t in trees) - tree_ensemble_size(p)
    lo, hi = slot_bounds(p, slots, predicates, np.float64)
    coef = np.asarray(model.attrs["coef"], dtype=np.float64).copy()
    known = lo == hi
    model.attrs["intercept"] = float(model.attrs["intercept"]) + float(
        np.sum(coef[known] * lo[known])
    )
    removed = int(np.sum(known & (coef != 0.0)))
    coef[known] = 0.0
    model.attrs["coef"] = coef
    return removed


def slot_bounds(
    p: Pipeline, slots: list[Slot], predicates: dict[str, tuple], dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot ``[lo, hi]`` over the rows that satisfy ``predicates``, as
    the model kernel sees the slot: the runtime's float64 featurization,
    cast to ``dtype`` (float32 for trees, as :func:`onnx_rt.predict` does).

    Numeric and constant slots come from the shared featurizer evaluated at
    each input's raw bounds. Its rounded affine maps (and the cast) are
    monotone, so the two outputs bound every value in between exactly.
    One-hot slots come from :meth:`Slot.interval`: exact for a bare 0/1
    indicator, widened outward by one float32 ulp when a scaler follows
    the one-hot, whose rounding that refolded form does not reproduce.
    """
    # each numeric input at its raw lower (row 0) and upper (row 1) bound
    frame = pd.DataFrame(
        {
            n.attrs["name"]: Slot("num", source=n.attrs["name"]).interval(predicates)
            if n.attrs["kind"] == "num"
            else (None, None)
            for n in p.nodes.values()
            if n.op == "input"
        },
        index=[0, 1],
    )
    with np.errstate(invalid="ignore"):  # inf * 0 under a zero scale
        X = onnx_rt.featurize(p, frame)
    lo, hi = np.fmin(X[0], X[1]), np.fmax(X[0], X[1])
    lo[np.isnan(lo)] = -np.inf
    hi[np.isnan(hi)] = np.inf
    f32 = np.float32
    for i, s in enumerate(slots):
        if s.kind != "onehot":
            continue
        lo[i], hi[i] = s.interval(predicates)
        if (s.a, s.b) != (1.0, 0.0):  # refolded scaler: widen by a float32 ulp
            lo[i] = np.nextafter(f32(lo[i]), f32(-np.inf))
            hi[i] = np.nextafter(f32(hi[i]), f32(np.inf))
    return lo.astype(dtype), hi.astype(dtype)


def apply_output_predicate_pruning(p: Pipeline, label_value: int) -> Pipeline:
    """Prune against ``prediction = label_value`` (§4.1, "predicates on the
    outputs of the trained pipelines").

    Only sound for models where a leaf alone decides the label — single
    decision trees (payload argmax). For ensembles and linear models the
    label depends on the aggregate, so the rule leaves them unchanged.
    Rows routed to collapsed subtrees still produce a (rejected) label and
    are removed by the query's filter, so the *filtered* result is
    unchanged.
    """
    p = p.clone()
    model = p.model_node
    if model.op != "tree_ensemble" or model.attrs["kind"] != "dt":
        return p
    t: Tree = model.attrs["trees"][0]
    is_leaf = t.left == -1
    keep = np.zeros(t.n_nodes, dtype=bool)
    keep[is_leaf] = np.argmax(t.value[is_leaf], axis=1) == int(label_value)
    model.attrs["trees"] = [t.collapse_unsatisfying(keep)]
    return p


def tree_ensemble_size(p: Pipeline) -> int:
    """Total tree-node count (0 for linear models) — monotonicity checks."""
    model = p.model_node
    if model.op != "tree_ensemble":
        return 0
    return int(sum(t.n_nodes for t in model.attrs["trees"]))
