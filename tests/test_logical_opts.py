"""Tests for §4 logical optimizations: predicate-based model pruning,
model-projection pushdown, data-induced optimizations.

The load-bearing property everywhere: the optimized pipeline is
*semantically equivalent* on every row that satisfies the predicates.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.data_induced import (
    ColumnStats,
    apply_data_induced_pruning,
    collect_stats_pandas,
    compile_partitioned_models,
)
from repro.core.predicate_pruning import (
    Predicate,
    PruneResult,
    apply_output_predicate_pruning,
    apply_predicate_pruning,
    merge_predicates,
    tree_ensemble_size,
)
from repro.core.projection_pushdown import apply_projection_pushdown
from repro.ir.tree import LEAF
from repro.ml.pipeline import fit_pipeline
from repro.runtime import onnx_rt
from tests.boundaries import split_boundaries


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(42)
    n = 3000
    pdf = pd.DataFrame(
        {
            "age": rng.uniform(0, 100, n).round(1),
            "bpm": rng.normal(80, 15, n).round(1),
            "weight": rng.normal(75, 12, n).round(1),
            "asthma": rng.choice(["0", "1"], n),
            "smoker": rng.choice(["no", "yes", "quit"], n),
        }
    )
    pdf["label"] = (
        (pdf.age > 55) & ((pdf.asthma == "1") | (pdf.smoker == "yes"))
    ).astype(int)
    return pdf


def _ir(frame, kind, **kw):
    return fit_pipeline(
        frame, ["age", "bpm", "weight"], ["asthma", "smoker"], "label", kind, **kw
    )


def _assert_equiv(p_opt, p_orig, pdf, atol=1e-9):
    l1, s1 = onnx_rt.run(p_opt, pdf)
    l0, s0 = onnx_rt.run(p_orig, pdf)
    np.testing.assert_array_equal(l1, l0)
    np.testing.assert_allclose(s1, s0, atol=atol)


def _boundary_frames(frame, p):
    """(column, value, op, rows): for each split boundary value ``v``, the
    frame clipped to ``col <= v`` or ``col >= v``, so that every row
    qualifies and many sit exactly on ``v``."""
    for col, v in split_boundaries(p):
        yield col, v, "<=", frame.assign(**{col: np.minimum(frame[col], v)})
        yield col, v, ">=", frame.assign(**{col: np.maximum(frame[col], v)})


def _label_changes(p_opt, p_orig, rows) -> int:
    return int(np.sum(onnx_rt.run(p_opt, rows)[0] != onnx_rt.run(p_orig, rows)[0]))


class TestMergePredicates:
    def test_single_eq(self):
        assert merge_predicates([Predicate("a", "=", 1)]) == {"a": ("eq", 1)}

    def test_range_intersection(self):
        m = merge_predicates(
            [Predicate("a", ">=", 2), Predicate("a", "<", 10)]
        )
        assert m["a"] == ("range", 2.0, 10.0)

    def test_eq_wins_over_range(self):
        m = merge_predicates([Predicate("a", ">", 0), Predicate("a", "=", 5)])
        assert m["a"] == ("eq", 5)


class TestPredicatePruning:
    @pytest.mark.parametrize("kind", ["dt", "gb", "rf"])
    def test_tree_models_shrink_and_stay_equivalent(self, frame, kind):
        p = _ir(frame, kind, max_depth=7, n_estimators=10)
        preds = [Predicate("asthma", "=", "1"), Predicate("age", ">", 55)]
        res = apply_predicate_pruning(p, preds)
        sub = frame[(frame.asthma == "1") & (frame.age > 55)]
        _assert_equiv(res.pipeline, p, sub)
        assert tree_ensemble_size(res.pipeline) < tree_ensemble_size(p)
        assert res.pruned_nodes > 0

    def test_equality_binds_input_to_constant(self, frame):
        p = _ir(frame, "dt", max_depth=5)
        res = apply_predicate_pruning(p, [Predicate("asthma", "=", "1")])
        assert res.bound_inputs == {"asthma": "1"}
        assert "asthma" not in res.pipeline.input_cols
        sub = frame[frame.asthma == "1"].drop(columns=["asthma"])
        l1, _ = onnx_rt.run(res.pipeline, sub)
        l0, _ = onnx_rt.run(p, frame[frame.asthma == "1"])
        np.testing.assert_array_equal(l1, l0)

    def test_numeric_equality_binds_and_folds_linear(self, frame):
        p = _ir(frame, "lr", l1=0.0)
        res = apply_predicate_pruning(p, [Predicate("age", "=", 60.0)])
        assert "age" not in res.pipeline.input_cols
        coef = res.pipeline.model_node.attrs["coef"]
        assert coef[0] == 0.0  # age slot folded into intercept
        sub = frame[frame.age == frame.age]  # all rows, but fix age
        sub = sub.assign(age=60.0)
        _assert_equiv(res.pipeline, p, sub, atol=1e-9)

    def test_range_predicate_prunes_tree(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        res = apply_predicate_pruning(p, [Predicate("age", "<=", 30.0)])
        sub = frame[frame.age <= 30.0]
        _assert_equiv(res.pipeline, p, sub)
        assert tree_ensemble_size(res.pipeline) <= tree_ensemble_size(p)

    def test_no_predicates_is_noop(self, frame):
        p = _ir(frame, "dt", max_depth=5)
        res = apply_predicate_pruning(p, [])
        assert tree_ensemble_size(res.pipeline) == tree_ensemble_size(p)

    def test_predicate_on_nonmodel_column_ignored(self, frame):
        p = _ir(frame, "dt", max_depth=5)
        res = apply_predicate_pruning(p, [Predicate("hospital_id", "=", 7)])
        assert res.bound_inputs == {}
        assert tree_ensemble_size(res.pipeline) == tree_ensemble_size(p)

    def test_categorical_eq_fixes_whole_onehot_block(self, frame):
        # With smoker='yes' fixed, no tree may split on any smoker slot.
        p = _ir(frame, "gb", max_depth=6, n_estimators=12)
        res = apply_predicate_pruning(p, [Predicate("smoker", "=", "yes")])
        from repro.ir.graph import model_used_features
        from repro.ir.slots import model_input_slots

        # model may still reference the (now constant) slots only if they
        # were not prunable; verify equivalence is what matters:
        sub = frame[frame.smoker == "yes"].drop(columns=["smoker"])
        l1, s1 = onnx_rt.run(res.pipeline, sub)
        l0, s0 = onnx_rt.run(p, frame[frame.smoker == "yes"])
        np.testing.assert_array_equal(l1, l0)
        np.testing.assert_allclose(s1, s0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_split_boundary_predicates_keep_labels(self, frame, kind):
        # a constant on a split boundary must not move any qualifying row
        # to the other side of that split
        p = _ir(frame, kind, max_depth=6, n_estimators=8)
        bad = [
            (col, v, op)
            for col, v, op, rows in _boundary_frames(frame, p)
            if _label_changes(
                apply_predicate_pruning(p, [Predicate(col, op, v)]).pipeline, p, rows
            )
        ]
        assert not bad, f"{len(bad)} boundary predicates change labels: {bad[:3]}"

    def test_never_grows(self, frame):
        p = _ir(frame, "rf", max_depth=6, n_estimators=8)
        res = apply_predicate_pruning(p, [Predicate("bpm", ">", 200.0)])
        assert tree_ensemble_size(res.pipeline) <= tree_ensemble_size(p)


class TestOutputPredicatePruning:
    def test_dt_collapse_keeps_filtered_semantics(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        pruned = apply_output_predicate_pruning(p, 1)
        l0, _ = onnx_rt.run(p, frame)
        l1, _ = onnx_rt.run(pruned, frame)
        # rows predicted 1 by the original stay predicted 1; rows predicted
        # 0 may change arbitrarily but must remain != 1
        np.testing.assert_array_equal(l1 == 1, l0 == 1)

    def test_non_dt_unchanged(self, frame):
        p = _ir(frame, "gb", max_depth=3, n_estimators=5)
        pruned = apply_output_predicate_pruning(p, 1)
        assert tree_ensemble_size(pruned) == tree_ensemble_size(p)


class TestProjectionPushdown:
    def test_lr_sparse_removes_columns(self, frame):
        p = _ir(frame, "lr", l1=0.25)  # strong penalty zeroes noise features
        res = apply_projection_pushdown(p)
        assert len(res.removed_cols) >= 1
        kept = res.pipeline.input_cols
        sub = frame[kept + ["label"]]
        l1_, s1 = onnx_rt.run(res.pipeline, sub)
        l0, s0 = onnx_rt.run(p, frame)
        np.testing.assert_array_equal(l1_, l0)
        np.testing.assert_allclose(s1, s0, atol=1e-9)

    def test_shallow_dt_removes_columns(self, frame):
        p = _ir(frame, "dt", max_depth=2)
        res = apply_projection_pushdown(p)
        assert len(res.removed_cols) >= 1
        sub = frame[res.pipeline.input_cols]
        l1_, _ = onnx_rt.run(res.pipeline, sub)
        l0, _ = onnx_rt.run(p, frame)
        np.testing.assert_array_equal(l1_, l0)

    def test_model_feature_count_shrinks(self, frame):
        p = _ir(frame, "dt", max_depth=2)
        res = apply_projection_pushdown(p)
        assert res.pipeline.n_model_features() < p.n_model_features()

    def test_deep_model_using_all_inputs_noop(self, frame):
        p = _ir(frame, "gb", max_depth=6, n_estimators=30)
        res = apply_projection_pushdown(p)
        # may or may not prune features, but never breaks equivalence
        sub = frame[res.pipeline.input_cols]
        l1_, _ = onnx_rt.run(res.pipeline, sub)
        l0, _ = onnx_rt.run(p, frame)
        np.testing.assert_array_equal(l1_, l0)

    def test_composes_with_predicate_pruning(self, frame):
        # Fig 3: pruning first enables more projection pushdown.
        p = _ir(frame, "dt", max_depth=8)
        pr = apply_predicate_pruning(p, [Predicate("asthma", "=", "1")])
        res = apply_projection_pushdown(pr.pipeline)
        sub = frame[frame.asthma == "1"]
        l0, _ = onnx_rt.run(p, sub)
        l1_, _ = onnx_rt.run(res.pipeline, sub[res.pipeline.input_cols])
        np.testing.assert_array_equal(l1_, l0)

    def test_onehot_category_subsetting(self, frame):
        # depth-1 stump on one one-hot slot: the other categories and both
        # numeric groups must vanish.
        p = _ir(frame, "dt", max_depth=1)
        res = apply_projection_pushdown(p)
        assert res.pipeline.n_model_features() == 1

    def test_single_leaf_model_prunes_everything(self, frame):
        pdf = frame.assign(label=0)  # constant label -> single-leaf tree
        p = fit_pipeline(pdf, ["age"], ["asthma"], "label", "dt", max_depth=3)
        res = apply_projection_pushdown(p)
        assert res.removed_cols == ["age", "asthma"]
        l, _ = onnx_rt.run(res.pipeline, pdf)
        assert (l == 0).all()


@pytest.fixture(scope="module")
def null_x():
    """A depth-6 dt on ``x``, ``y`` and ``c``, and 500 rows with ``x < 0`` to
    score, 50 of them with ``x`` NULL."""
    rng = np.random.default_rng(11)
    n = 3000
    pdf = pd.DataFrame({
        "x": rng.standard_normal(n),
        "y": rng.standard_normal(n),
        "c": rng.choice(["a", "b", "c"], n),
    })
    pdf["label"] = ((pdf.x + 0.5 * pdf.y > 0) ^ (pdf.c == "a")).astype(int)
    p = fit_pipeline(pdf, ["x", "y"], ["c"], "label", "dt", max_depth=6)
    rows = pdf[pdf.x < 0].head(500).drop(columns="label").reset_index(drop=True)
    rows.loc[::10, "x"] = np.nan
    return pdf, p, rows


class TestDataInduced:
    def test_stats_restriction_equiv_on_restricted_data(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        young = frame[frame.age <= 40]
        stats = collect_stats_pandas(young, ["age", "bpm", "weight"], ["asthma", "smoker"])
        res = apply_data_induced_pruning(p, stats)
        assert isinstance(res, PruneResult)
        _assert_equiv(res.pipeline, p, young)
        assert tree_ensemble_size(res.pipeline) < tree_ensemble_size(p)

    def test_full_domain_stats_noop_on_structure(self, frame):
        p = _ir(frame, "dt", max_depth=6)
        stats = collect_stats_pandas(frame, ["age", "bpm", "weight"], ["asthma", "smoker"])
        res = apply_data_induced_pruning(p, stats)
        _assert_equiv(res.pipeline, p, frame)

    def test_categorical_domain_restriction(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        sub = frame[frame.smoker == "no"]
        stats = ColumnStats(cat_domains={"smoker": {"no"}})
        res = apply_data_induced_pruning(p, stats)
        _assert_equiv(res.pipeline, p, sub)

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_split_boundary_stats_keep_labels(self, frame, kind):
        # a min or max on a split boundary must not move any row to the
        # other side of that split
        p = _ir(frame, kind, max_depth=6, n_estimators=8)
        bad = []
        for col, v, op, rows in _boundary_frames(frame, p):
            stats = collect_stats_pandas(rows, [col], [])
            assert stats.num_ranges[col][1 if op == "<=" else 0] == v
            if _label_changes(apply_data_induced_pruning(p, stats).pipeline, p, rows):
                bad.append((col, v, op))
        assert not bad, f"{len(bad)} boundary min/max stats change labels: {bad[:3]}"

    def test_null_numeric_keeps_labels(self, null_x):
        # the runtime sends a NULL right at every split, so the max of a
        # column holding NULLs is +inf, not the largest non-NULL value
        _, p, rows = null_x
        stats = collect_stats_pandas(rows, ["x", "y"], ["c"])
        _assert_equiv(apply_data_induced_pruning(p, stats).pipeline, p, rows)
        assert stats.num_ranges["x"][1] == np.inf
        all_null = collect_stats_pandas(rows.assign(x=np.nan), ["x", "y"], ["c"])
        assert "x" not in all_null.num_ranges and "y" in all_null.num_ranges

    def test_null_numeric_is_not_folded_into_a_linear_model(self, null_x):
        # x is one value or NULL: the slot is not known, so x stays a model
        # input and a NULL still makes the margin NaN
        pdf, _, rows = null_x
        p = fit_pipeline(pdf, ["x", "y"], ["c"], "label", "lr")
        rows = rows.assign(x=rows.x.where(rows.x.isna(), -0.5))
        stats = collect_stats_pandas(rows, ["x", "y"], ["c"])
        pruned = apply_data_induced_pruning(p, stats).pipeline
        pushed = apply_projection_pushdown(pruned).pipeline
        _assert_equiv(pushed, p, rows)
        assert "x" in pushed.input_cols

    def test_partitioned_null_numeric_keeps_labels(self, null_x):
        _, p, rows = null_x
        pm = compile_partitioned_models(p, rows, "c")
        assert set(pm.models) == {"a", "b", "c"}
        for v, mp in pm.models.items():
            part = rows[rows.c == v]
            np.testing.assert_array_equal(onnx_rt.run(mp, part)[0], onnx_rt.run(p, part)[0])

    def test_scaled_onehot_domain_restriction(self, frame):
        # a Scaler after the one-hot: the refolded slot bounds are widened,
        # and the split on the 'yes' indicator still collapses
        from repro.ir.graph import Node, Pipeline
        from repro.ir.tree import Tree

        inp = Node("input", [], {"name": "smoker", "kind": "cat"})
        onehot = Node("onehot", [inp.id], {"categories": ["no", "yes", "quit"]})
        scaler = Node("scaler", [onehot.id],
                      {"offset": np.full(3, 0.3), "scale": np.full(3, 2.5)})
        thr = (0.5 - 0.3) * 2.5  # between the scaled absent and present values
        tree = Tree([1, 0, 0], [thr, 0, 0], [1, LEAF, LEAF], [2, LEAF, LEAF],
                    [[0, 0], [1, 0], [0, 1]])
        model = Node("tree_ensemble", [scaler.id],
                     {"trees": [tree], "kind": "dt", "base_score": 0.0})
        p = Pipeline({n.id: n for n in (inp, onehot, scaler, model)}, model.id, ["smoker"])
        res = apply_data_induced_pruning(p, ColumnStats(cat_domains={"smoker": {"yes"}}))
        assert tree_ensemble_size(res.pipeline) == 1
        _assert_equiv(res.pipeline, p, frame[frame.smoker == "yes"])

    def test_partitioned_models_equivalent_per_partition(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        pm = compile_partitioned_models(p, frame, "smoker")
        assert set(pm.models) == {"no", "yes", "quit"}
        for v, mp in pm.models.items():
            part = frame[frame.smoker == v]
            l0, _ = onnx_rt.run(p, part)
            l1_, _ = onnx_rt.run(mp, part[mp.input_cols])
            np.testing.assert_array_equal(l1_, l0)

    def test_partitioned_prunes_partition_column_itself(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        pm = compile_partitioned_models(p, frame, "smoker")
        # within one partition the smoker one-hot block is constant, so
        # every per-partition model should have dropped the smoker input
        for v, mp in pm.models.items():
            assert "smoker" not in mp.input_cols
        assert pm.avg_pruned_cols >= 1.0
