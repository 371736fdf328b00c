"""The 22 pipeline statistics feeding the §5.2 optimization strategies.

The paper gathers 22 statistics per trained pipeline ("#inputs to the
pipeline; #inputs to model (after featurization); #specific operators
(e.g. one-hot encoders); mean/max #outputs of OHEs; #trees,
mean/max/stddev tree depth..."). This module computes the same family of
statistics from the IR.
"""
from __future__ import annotations

import numpy as np

from repro.ir.graph import Pipeline, node_width

FEATURE_NAMES = [
    "n_inputs",            # 1  pipeline inputs (raw columns)
    "n_num_inputs",        # 2
    "n_cat_inputs",        # 3
    "n_features",          # 4  model inputs after featurization
    "n_onehot_features",   # 5
    "n_scaler_features",   # 6
    "n_ohe_ops",           # 7  #OneHotEncoder operators
    "mean_ohe_outputs",    # 8
    "max_ohe_outputs",     # 9
    "n_ops",               # 10 total IR operators
    "n_trees",             # 11
    "mean_tree_depth",     # 12 (0 for linear models, as in the paper)
    "max_tree_depth",      # 13
    "std_tree_depth",      # 14
    "total_tree_nodes",    # 15
    "total_tree_leaves",   # 16
    "mean_nodes_per_tree", # 17
    "n_nonzero_coef",      # 18 (0 for tree models)
    "is_lr",               # 19
    "is_dt",               # 20
    "is_rf",               # 21
    "is_gb",               # 22
]


def pipeline_features(p: Pipeline) -> np.ndarray:
    """22-dim statistics vector, ordered as :data:`FEATURE_NAMES`."""
    nodes = [p.nodes[nid] for nid in p.topo_order()]
    inputs = [n for n in nodes if n.op == "input"]
    n_num = sum(1 for n in inputs if n.attrs["kind"] == "num")
    n_cat = len(inputs) - n_num
    ohes = [n for n in nodes if n.op == "onehot"]
    ohe_outs = [len(n.attrs["categories"]) for n in ohes] or [0]
    scalers = [n for n in nodes if n.op == "scaler"]
    n_scaled = int(sum(node_width(p, n.id) for n in scalers))

    model = p.model_node
    kind = model.attrs.get("kind", "lr") if model.op == "tree_ensemble" else "lr"
    if model.op == "tree_ensemble":
        trees = model.attrs["trees"]
        depths = np.array([t.depth() for t in trees], dtype=np.float64)
        n_nodes = np.array([t.n_nodes for t in trees], dtype=np.float64)
        n_leaves = sum(t.n_leaves for t in trees)
        nz = 0.0
    else:
        trees, depths, n_nodes, n_leaves = [], np.array([0.0]), np.array([0.0]), 0
        nz = float(np.sum(np.asarray(model.attrs["coef"]) != 0.0))

    n_feat = p.n_model_features()
    return np.array(
        [
            len(inputs),
            n_num,
            n_cat,
            n_feat,
            sum(ohe_outs),
            n_scaled,
            len(ohes),
            float(np.mean(ohe_outs)),
            float(np.max(ohe_outs)),
            len(nodes),
            len(trees),
            float(np.mean(depths)),
            float(np.max(depths)),
            float(np.std(depths)),
            float(np.sum(n_nodes)),
            float(n_leaves),
            float(np.mean(n_nodes)),
            nz,
            1.0 if kind == "lr" else 0.0,
            1.0 if kind == "dt" else 0.0,
            1.0 if kind == "rf" else 0.0,
            1.0 if kind == "gb" else 0.0,
        ],
        dtype=np.float64,
    )
