"""Raven's unified IR: an ONNX-like operator DAG for trained pipelines (§3).

Nodes carry an ``op`` tag, an attribute dict, and input node ids. Data
flowing between nodes is a 2-D batch of ``width`` columns; numeric values
are float64, categorical columns are single string columns until a
OneHotEncoder consumes them. Supported ops (1-1 with the ONNX(-ML)
operators the paper lists in §3):

========================  =====================================================
op                        attrs
========================  =====================================================
``input``                 ``name`` (column), ``kind`` in {"num", "cat"}
``constant``              ``value`` (scalar or str) — a bound model input
``scaler``                ``offset`` (w,), ``scale`` (w,): ``(x-offset)*scale``
``onehot``                ``categories`` (list of str) over a width-1 cat input
``concat``                — horizontal concatenation of inputs
``feature_extractor``     ``indices`` (list of int) — column subset
``linear_classifier``     ``coef`` (d,), ``intercept``  (binary, sigmoid)
``tree_ensemble``         ``trees`` (list of Tree), ``kind`` in
                          {"dt","rf","gb"}, ``base_score`` (gb only; learning
                          rate folded into leaf values)
========================  =====================================================

The relational side of the paper's IR (scans, joins, filters, projections)
lives in :mod:`repro.core.query`; this module is the ML sub-graph the
PREDICT operator owns — the gray box of the paper's Fig 2.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field

import numpy as np

_ids = itertools.count()

ML_OPS = {
    "input", "constant", "scaler", "onehot", "concat", "feature_extractor",
    "linear_classifier", "tree_ensemble",
}
MODEL_OPS = {"linear_classifier", "tree_ensemble"}


@dataclass
class Node:
    """One IR operator."""

    op: str
    inputs: list[str]
    attrs: dict
    id: str = field(default_factory=lambda: f"n{next(_ids)}")

    def __post_init__(self) -> None:
        if self.op not in ML_OPS:
            raise ValueError(f"unknown op {self.op!r}")


@dataclass
class Pipeline:
    """The ML sub-graph: nodes by id, plus the id of the model (sink) node.

    ``input_order`` fixes the external column order (what the relational
    side must supply). Invariant: every ``input`` node's column appears in
    ``input_order`` exactly once.
    """

    nodes: dict[str, Node]
    output: str
    input_order: list[str]

    # -- structure ------------------------------------------------------
    @property
    def model_node(self) -> Node:
        return self.nodes[self.output]

    @property
    def input_cols(self) -> list[str]:
        present = {n.attrs["name"] for n in self.nodes.values() if n.op == "input"}
        return [c for c in self.input_order if c in present]

    def topo_order(self) -> list[str]:
        """Kahn topological order over nodes reachable from the output."""
        reach: set[str] = set()
        stack = [self.output]
        while stack:
            nid = stack.pop()
            if nid in reach:
                continue
            reach.add(nid)
            stack.extend(self.nodes[nid].inputs)
        order: list[str] = []
        done: set[str] = set()

        def visit(nid: str, path: tuple[str, ...]) -> None:
            if nid in done:
                return
            if nid in path:
                raise ValueError(f"cycle through {nid}")
            for dep in self.nodes[nid].inputs:
                visit(dep, path + (nid,))
            done.add(nid)
            order.append(nid)

        visit(self.output, ())
        return order

    def gc(self) -> "Pipeline":
        """Drop nodes unreachable from the output and stale input columns."""
        keep = set(self.topo_order())
        nodes = {nid: n for nid, n in self.nodes.items() if nid in keep}
        cols = {n.attrs["name"] for n in nodes.values() if n.op == "input"}
        return Pipeline(nodes, self.output, [c for c in self.input_order if c in cols])

    def clone(self) -> "Pipeline":
        return copy.deepcopy(self)

    def validate(self) -> None:
        order = self.topo_order()
        assert self.output in order
        n_models = sum(1 for nid in order if self.nodes[nid].op in MODEL_OPS)
        assert n_models == 1, f"expected exactly one model node, got {n_models}"
        for nid in order:
            node = self.nodes[nid]
            for dep in node.inputs:
                assert dep in self.nodes, f"{nid} references missing {dep}"
        cols = [n.attrs["name"] for n in self.nodes.values() if n.op == "input"]
        assert len(cols) == len(set(cols)), "duplicate input columns"
        assert set(cols) <= set(self.input_order), "input not in input_order"

    def n_model_features(self) -> int:
        """Width of the model node's input feature vector."""
        return int(sum(node_width(self, i) for i in self.model_node.inputs))


def node_width(p: Pipeline, nid: str) -> int:
    """Output width of a node (statically derivable for every op)."""
    n = p.nodes[nid]
    if n.op in ("input", "constant"):
        return 1
    if n.op == "onehot":
        return len(n.attrs["categories"])
    if n.op == "scaler":
        return node_width(p, n.inputs[0])
    if n.op == "concat":
        return sum(node_width(p, i) for i in n.inputs)
    if n.op == "feature_extractor":
        return len(n.attrs["indices"])
    raise ValueError(f"model node {n.op} has no column width")


def model_used_features(model: Node) -> np.ndarray:
    """Sorted feature indices the model actually reads: union of tree split
    features, or indices of nonzero linear coefficients (the densification
    criterion of the model-projection pushdown rule, §4.1)."""
    if model.op == "tree_ensemble":
        used: set[int] = set()
        for t in model.attrs["trees"]:
            used.update(int(f) for f in t.used_features())
        return np.array(sorted(used), dtype=np.int64)
    coef = np.asarray(model.attrs["coef"])
    return np.flatnonzero(coef != 0.0)
