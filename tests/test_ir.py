"""Unit tests for the unified IR: tree rewrites, graph, slots, the trained
pipeline's graph, and the two CPU runtimes."""
import numpy as np
import pandas as pd
import pytest

from repro.ir.graph import Node, Pipeline, model_used_features, node_width
from repro.ir.slots import Slot, model_input_slots
from repro.ir.tree import LEAF, Tree, leaf_tree
from repro.ml.ensemble import GradientBoosting, RandomForest
from repro.ml.linear import LogisticRegression
from repro.ml.pipeline import fit_pipeline, model_attrs
from repro.ml.tree import DecisionTree
from repro.runtime import onnx_rt, reference_rt


def _toy_tree():
    """        f0 <= 60
               /       \\
         f1 <= 0.5    f2 <= 0.5
          /    \\       /    \\
        [1]    [0]    [0]    [1]
    (payload rows are [p0, p1] class distributions)
    """
    return Tree(
        feature=[0, 1, 2, 0, 0, 0, 0],
        threshold=[60.0, 0.5, 0.5, 0, 0, 0, 0],
        left=[1, 3, 5, LEAF, LEAF, LEAF, LEAF],
        right=[2, 4, 6, LEAF, LEAF, LEAF, LEAF],
        value=[[0, 0], [0, 0], [0, 0], [0, 1], [1, 0], [1, 0], [0, 1]],
    )


class TestTree:
    def test_routing(self):
        t = _toy_tree()
        X = np.array([[50, 0, 0], [50, 1, 0], [70, 0, 0], [70, 0, 1]], dtype=np.float32)
        np.testing.assert_array_equal(
            np.argmax(t.predict_value(X), axis=1), [1, 0, 0, 1]
        )

    def test_depth_and_counts(self):
        t = _toy_tree()
        assert t.depth() == 2
        assert t.n_nodes == 7
        assert t.n_leaves == 4
        assert t.used_features().tolist() == [0, 1, 2]

    def test_prune_left_interval(self):
        t = _toy_tree()
        lo = np.array([-np.inf, -np.inf, -np.inf])
        hi = np.array([60.0, np.inf, np.inf])  # always goes left at root
        pt = t.prune_with_intervals(lo, hi)
        assert pt.n_nodes == 3
        assert pt.used_features().tolist() == [1]
        X = np.array([[50, 0, 9], [50, 1, 9]], dtype=np.float32)
        np.testing.assert_array_equal(pt.predict_value(X), t.predict_value(X))

    def test_prune_right_interval(self):
        t = _toy_tree()
        lo = np.array([61.0, -np.inf, -np.inf])
        hi = np.array([np.inf, np.inf, np.inf])
        pt = t.prune_with_intervals(lo, hi)
        assert pt.used_features().tolist() == [2]

    def test_prune_point_interval_collapses_to_leaf(self):
        t = _toy_tree()
        lo = np.array([50.0, 0.0, -np.inf])
        hi = np.array([50.0, 0.0, np.inf])
        pt = t.prune_with_intervals(lo, hi)
        assert pt.n_nodes == 1
        np.testing.assert_array_equal(pt.value[0], [0, 1])

    def test_prune_interval_tightening_nested_same_feature(self):
        # f0<=10 else (f0<=20 -> A else B): with f0 in (10, 20] inner
        # split must also collapse.
        t = Tree(
            feature=[0, 0, 0, 0, 0],
            threshold=[10.0, 0, 20.0, 0, 0],
            left=[1, LEAF, 3, LEAF, LEAF],
            right=[2, LEAF, 4, LEAF, LEAF],
            value=[[0, 0], [1, 0], [0, 0], [0, 1], [1, 0]],
        )
        pt = t.prune_with_intervals(np.array([10.5]), np.array([20.0]))
        assert pt.n_nodes == 1
        np.testing.assert_array_equal(pt.value[0], [0, 1])

    def test_prune_no_interval_is_identity(self):
        t = _toy_tree()
        pt = t.prune_with_intervals(
            np.full(3, -np.inf), np.full(3, np.inf)
        )
        assert pt.n_nodes == t.n_nodes
        X = np.random.default_rng(0).uniform(-100, 100, (50, 3)).astype(np.float32)
        np.testing.assert_array_equal(pt.predict_value(X), t.predict_value(X))

    def test_remap_features(self):
        t = _toy_tree()
        rt = t.remap_features({0: 2, 1: 0, 2: 1})
        assert sorted(rt.used_features().tolist()) == [0, 1, 2]
        X = np.array([[0.0, 0.0, 50.0]], dtype=np.float32)  # f0 now at index 2
        np.testing.assert_array_equal(rt.predict_value(X), [[0, 1]])

    def test_collapse_unsatisfying(self):
        t = _toy_tree()
        is_leaf = t.left == LEAF
        keep = np.zeros(t.n_nodes, dtype=bool)
        keep[is_leaf] = np.argmax(t.value[is_leaf], axis=1) == 1
        ct = t.collapse_unsatisfying(keep)
        # both class-1 leaves survive on opposite root branches: root kept
        assert ct.n_nodes <= t.n_nodes
        X = np.array([[50, 0, 0], [70, 0, 1]], dtype=np.float32)
        np.testing.assert_array_equal(
            np.argmax(ct.predict_value(X), axis=1), [1, 1]
        )

    def test_collapse_whole_side(self):
        t = _toy_tree()
        keep = np.zeros(t.n_nodes, dtype=bool)
        keep[3] = True  # only the deep-left class-1 leaf satisfies
        ct = t.collapse_unsatisfying(keep)
        # right subtree (no satisfying leaf) collapses into one leaf
        assert ct.n_nodes == 5

    def test_leaf_tree(self):
        t = leaf_tree([0.2, 0.8])
        assert t.n_nodes == 1 and t.depth() == 0
        np.testing.assert_array_equal(
            t.predict_value(np.zeros((2, 5))), [[0.2, 0.8]] * 2
        )


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(11)
    n = 1000
    pdf = pd.DataFrame(
        {
            "age": rng.uniform(0, 100, n),
            "bpm": rng.normal(80, 15, n),
            "asthma": rng.choice(["0", "1"], n),
            "smoker": rng.choice(["no", "yes", "quit"], n),
        }
    )
    pdf["label"] = (
        (pdf.age > 55) & ((pdf.asthma == "1") | (pdf.smoker == "yes"))
    ).astype(int)
    return pdf


#: the frame's feature vector: age, bpm, asthma {0, 1}, smoker {no, quit, yes}
N_FEATURES = 7

LEARNERS = {
    "lr": lambda: LogisticRegression(),
    "dt": lambda: DecisionTree(max_depth=5),
    "gb": lambda: GradientBoosting(n_estimators=8, max_depth=5),
    "rf": lambda: RandomForest(n_estimators=8, max_depth=5),
}


@pytest.fixture(scope="module", params=["lr", "dt", "gb", "rf"])
def ir_and_frame(request, frame):
    p = fit_pipeline(
        frame, ["age", "bpm"], ["asthma", "smoker"], "label", request.param,
        max_depth=5, n_estimators=8,
    )
    return p, frame


class TestBuilderAndRuntimes:
    def test_ir_validates(self, ir_and_frame):
        p, frame = ir_and_frame
        p.validate()
        assert p.input_cols == ["age", "bpm", "asthma", "smoker"]
        assert p.n_model_features() == N_FEATURES

    def test_onnx_rt_matches_native_predict(self, ir_and_frame):
        """A learner's own predict / predict_proba on a matrix equals
        onnx_rt.predict over its converted model node."""
        p, frame = ir_and_frame
        kind = p.model_node.attrs.get("kind", "lr")
        X = np.ascontiguousarray(onnx_rt.featurize(p, frame), dtype=np.float32)
        model = LEARNERS[kind]().fit(X, frame["label"].to_numpy())
        node = Node(p.model_node.op, [], model_attrs(model, kind))
        label, score = onnx_rt.predict(node, X)
        np.testing.assert_array_equal(label, model.predict(X))
        np.testing.assert_allclose(score, model.predict_proba(X)[:, 1], atol=1e-6)

    def test_reference_rt_matches_onnx_rt(self, ir_and_frame):
        p, frame = ir_and_frame
        assert reference_rt.agrees_with_onnx_rt(p, frame)

    def test_topo_order_parents_after_children(self, ir_and_frame):
        p, _ = ir_and_frame
        order = p.topo_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for nid in order:
            for dep in p.nodes[nid].inputs:
                assert pos[dep] < pos[nid]

    def test_slots_cover_features(self, ir_and_frame):
        p, _ = ir_and_frame
        slots = model_input_slots(p)
        assert len(slots) == N_FEATURES
        assert [s.kind for s in slots[:2]] == ["num", "num"]
        assert all(s.kind == "onehot" for s in slots[2:])

    def test_slot_affine_matches_scaler(self, ir_and_frame):
        p, frame = ir_and_frame
        slots = model_input_slots(p)
        age = frame["age"].to_numpy()
        expected = (age - age.mean()) / age.std()
        np.testing.assert_allclose(slots[0].a * age + slots[0].b, expected)


class TestSlots:
    def test_num_slot_interval_from_range(self):
        s = Slot("num", source="age", a=2.0, b=-3.0)
        lo, hi = s.interval({"age": ("range", 0.0, 10.0)})
        assert (lo, hi) == (-3.0, 17.0)

    def test_num_slot_negative_scale_flips(self):
        s = Slot("num", source="age", a=-1.0, b=0.0)
        lo, hi = s.interval({"age": ("range", 0.0, 10.0)})
        assert (lo, hi) == (-10.0, 0.0)

    def test_onehot_slot_eq_hit_and_miss(self):
        s = Slot("onehot", source="c", category="a")
        assert s.interval({"c": ("eq", "a")}) == (1.0, 1.0)
        assert s.interval({"c": ("eq", "b")}) == (0.0, 0.0)

    def test_onehot_slot_domain_restriction(self):
        s = Slot("onehot", source="c", category="a")
        assert s.interval({"c": ("in", {"b", "d"})}) == (0.0, 0.0)
        assert s.interval({"c": ("in", {"a"})}) == (1.0, 1.0)
        assert s.interval({"c": ("in", {"a", "b"})}) == (0.0, 1.0)

    def test_const_slot(self):
        s = Slot("const", const=4.2)
        assert s.interval({}) == (4.2, 4.2)

    def test_unconstrained_defaults(self):
        assert Slot("num", source="x").interval({}) == (-np.inf, np.inf)
        assert Slot("onehot", source="x", category="a").interval({}) == (0.0, 1.0)


class TestGraphUtils:
    def test_node_width(self, ir_and_frame):
        p, _ = ir_and_frame
        model_in = p.model_node.inputs[0]
        assert node_width(p, model_in) == N_FEATURES

    def test_gc_drops_unreachable(self, ir_and_frame):
        p, _ = ir_and_frame
        q = p.clone()
        orphan = Node("constant", [], {"value": 1.0})
        q.nodes[orphan.id] = orphan
        assert orphan.id not in q.gc().nodes

    def test_used_features_linear_nonzero(self):
        n = Node("linear_classifier", ["x"], {"coef": np.array([0.0, 2.0, 0.0, -1.0]), "intercept": 0.0})
        assert model_used_features(n).tolist() == [1, 3]

    def test_cycle_detection(self):
        a = Node("concat", [], {})
        b = Node("concat", [a.id], {})
        a.inputs = [b.id]
        m = Node("linear_classifier", [b.id], {"coef": np.zeros(1), "intercept": 0.0})
        p = Pipeline({a.id: a, b.id: b, m.id: m}, m.id, [])
        with pytest.raises(ValueError):
            p.topo_order()
