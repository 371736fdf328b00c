"""MLtoSQL (§5.1): compile a whole trained pipeline into one SQL expression.

The expression is the model's output, the margin (lr, gb) or the averaged
P(class 1) (dt, rf); the label and the score are thin wrappers around it
(:class:`SqlPrediction`). Linear models and scalers become arithmetic;
tree models and one-hot encoders become (nested) CASE expressions,
produced by a depth-first traversal exactly as the paper describes:

    CASE WHEN F[0] > 60 THEN (...) ELSE (...) END

Featurizer logic is *inlined* into each comparison through slot provenance:
a split on a scaled slot compiles to ``CAST((col - offset) * scale AS
FLOAT) <= thr``, the runtime's own operation order and float32 cast; a
split on a one-hot slot simplifies to ``col = 'cat'`` instead of
materializing the indicator.

NULL semantics follow the ML runtime (:mod:`repro.runtime.onnx_rt`), which
reads a NULL categorical value as the string ``'None'``. So a NULL sets
only the indicator of a category ``'None'`` (one learned from NULLs in
training), and takes the "category absent" branch of every other one-hot
split: the split is written ``CASE WHEN col = 'cat' THEN <present> ELSE
<absent> END``, where a NULL comparison falls to ELSE, and for the one
category ``'None'`` as ``COALESCE(col, 'None') = 'None'``. A NULL numeric
value takes the right branch of every split, as NaN does in the
runtime's ``x <= thr``.

The compiler translates the entire pipeline or raises (the paper's "whole
model pipeline or fail" contract); the caller falls back to the ML runtime.

Both Spark SQL and DuckDB accept the generated dialect (CASE/EXP/CAST).
Numeric splits compare ``CAST(expr AS FLOAT)`` so the float32 feature
matrix of the ML runtime and the SQL engine route rows identically —
residual mismatches are the rounding effects §7.4 quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.graph import Node, Pipeline
from repro.ir.slots import Slot, model_input_slots
from repro.ir.tree import LEAF, Tree


@dataclass
class SqlPrediction:
    """A compiled model. ``output_sql`` is its one output expression: the
    margin for lr and gb, the averaged P(class 1) for dt and rf. The label
    and the score derive from it, or from a column holding its value
    (:meth:`label`, :meth:`score`), so a statement that needs both selects
    the model once."""

    output_sql: str
    is_margin: bool

    def label(self, expr: str) -> str:
        """Integer 0/1 label of ``expr``, a value of ``output_sql``."""
        return f"CAST({expr} > {'0.0' if self.is_margin else '0.5'} AS INT)"

    def score(self, expr: str) -> str:
        """P(class 1) of ``expr``, a value of ``output_sql``."""
        return f"(1.0 / (1.0 + EXP(-{expr})))" if self.is_margin else expr

    @property
    def label_sql(self) -> str:
        return self.label(self.output_sql)

    @property
    def score_sql(self) -> str:
        return self.score(self.output_sql)


def _lit(v: object) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    # scientific notation: both Spark and DuckDB parse plain decimal
    # literals as DECIMAL (whose fixed precision overflows when summing
    # hundreds of tree outputs); E-notation parses as DOUBLE in both.
    return "{:.17e}".format(float(v))


def _sum_sql(parts: list[str]) -> str:
    """Balanced ``+`` expression: a 500-tree ensemble sum written as a
    left-recursive chain exceeds SQL binder recursion limits (DuckDB caps
    at 128); balancing keeps the parse tree at log depth."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return f"({_sum_sql(parts[:mid])} + {_sum_sql(parts[mid:])})"


def _is_category_sql(s: Slot) -> str:
    """``col = 'cat'`` for a one-hot slot; NULL matches only ``'None'``."""
    col = f"COALESCE({s.source}, 'None')" if s.category == "None" else s.source
    return f"{col} = {_lit(s.category)}"


def _slot_value_sql(s: Slot) -> str:
    """SQL for the slot's numeric value: each Scaler applied in the
    runtime's order, ``(x - offset) * scale``, so the double arithmetic
    rounds as :func:`repro.runtime.onnx_rt.featurize` does."""
    if s.kind == "const":
        return _lit(s.const)
    if s.kind == "num":
        expr = f"CAST({s.source} AS DOUBLE)"
    else:  # one-hot indicator
        expr = f"(CASE WHEN {_is_category_sql(s)} THEN 1.0 ELSE 0.0 END)"
    for off, sc in s.scalers:
        expr = f"(({expr} - {_lit(off)}) * {_lit(sc)})"
    return expr


def _slot_le_sql(s: Slot, thr: float) -> bool | tuple[str, bool]:
    """SQL for the split ``slot_value <= thr``: True/False when static,
    else ``(cond, cond_is_le)``. Rows where ``cond`` is TRUE take the left
    child when ``cond_is_le``, the right one otherwise; FALSE and NULL rows
    take the other child. A one-hot ``cond`` is :func:`_is_category_sql`."""
    if s.kind == "const":
        return bool(s.const <= thr)
    if s.kind == "num":
        return f"CAST({_slot_value_sql(s)} AS FLOAT) <= {_lit(thr)}", True
    # one-hot: the slot takes value b (category absent) or a+b (present)
    le_if_absent = bool(np.float32(s.b) <= thr)
    le_if_present = bool(np.float32(s.a + s.b) <= thr)
    if le_if_absent == le_if_present:
        return le_if_absent
    return _is_category_sql(s), le_if_present


def _tree_case_sql(t: Tree, slots: list[Slot], leaf_sql) -> str:
    """Depth-first nested-CASE compilation; ``leaf_sql(node) -> str``."""

    def rec(node: int) -> str:
        if t.left[node] == LEAF:
            return leaf_sql(node)
        split = _slot_le_sql(slots[int(t.feature[node])], float(t.threshold[node]))
        left, right = int(t.left[node]), int(t.right[node])
        if split is True:
            return rec(left)
        if split is False:
            return rec(right)
        cond, cond_is_le = split
        then, other = (left, right) if cond_is_le else (right, left)
        return f"CASE WHEN {cond} THEN {rec(then)} ELSE {rec(other)} END"

    return rec(0)


def compile_to_sql(p: Pipeline) -> SqlPrediction:
    """Whole-pipeline compilation. Raises ValueError when unsupported."""
    return compile_model_sql(p.model_node, model_input_slots(p))


def compile_model_sql(
    model: Node, slots: list[Slot], every_coef: bool = False
) -> SqlPrediction:
    """``model`` over the feature vector ``slots``. A linear model skips
    its zero coefficients unless ``every_coef`` (the MADlib baseline,
    which evaluates every dense column). ``output_sql`` is parenthesized,
    so the label and score may wrap it as they stand."""
    if model.op == "linear_classifier":
        coef = np.asarray(model.attrs["coef"], dtype=np.float64)
        terms = [
            f"{_slot_value_sql(slots[i])} * {_lit(coef[i])}"
            for i in (range(len(coef)) if every_coef else np.flatnonzero(coef))
        ]
        margin = _sum_sql(terms + [_lit(model.attrs["intercept"])])
        return SqlPrediction(f"({margin})", is_margin=True)

    if model.op != "tree_ensemble":  # pragma: no cover
        raise ValueError(f"MLtoSQL does not support {model.op}")

    kind = model.attrs["kind"]
    trees: list[Tree] = model.attrs["trees"]
    if kind == "gb":
        parts = [_lit(model.attrs["base_score"])] + [
            f"({_tree_case_sql(t, slots, lambda n, t=t: _lit(t.value[n, 0]))})"
            for t in trees
        ]
        return SqlPrediction(_sum_sql(parts), is_margin=True)

    # dt / rf: average class-1 probabilities; binary argmax = p1 > 0.5
    if trees[0].n_out != 2:
        raise ValueError("MLtoSQL tree classification supports binary tasks")
    parts = [
        f"({_tree_case_sql(t, slots, lambda n, t=t: _lit(t.value[n, 1]))})"
        for t in trees
    ]
    return SqlPrediction(
        f"({_sum_sql(parts)} / {_lit(len(trees))})", is_margin=False
    )
