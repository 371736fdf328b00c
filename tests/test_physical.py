"""Tests for the logical-to-physical transformations: MLtoSQL (checked
against DuckDB *and* Spark) and MLtoDNN (GEMM strategy), plus the §7.4
fidelity quantification."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.ml2sql import _lit, compile_model_sql, compile_to_sql
from repro.core.predicate_pruning import Predicate, apply_predicate_pruning
from repro.core.projection_pushdown import apply_projection_pushdown
from repro.ir.builder import build_pipeline_ir
from repro.ir.slots import model_input_slots
from repro.ml.pipeline import fit_pipeline
from repro.runtime import onnx_rt
from repro.runtime.dnn_rt import compile_to_dnn, compile_tree
from repro.runtime.gpu_sim import modeled_gpu_seconds
from tests.boundaries import boundary_rows


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(99)
    n = 4000
    pdf = pd.DataFrame(
        {
            "age": rng.uniform(0, 100, n).round(2),
            "bmi": rng.normal(26, 5, n).round(2),
            "pulse": rng.normal(75, 12, n).round(1),
            "gender": rng.choice(["m", "f"], n),
            "ward": rng.choice(["icu", "er", "gen", "amb"], n),
        }
    )
    pdf["label"] = (
        (pdf.age > 60) | ((pdf.ward == "icu") & (pdf.bmi > 30))
    ).astype(int)
    return pdf


def _ir(frame, kind, **kw):
    tp = fit_pipeline(
        frame, ["age", "bmi", "pulse"], ["gender", "ward"], "label", kind, **kw
    )
    return build_pipeline_ir(tp)


def _duck_eval(sqlp, pdf):
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        out = con.execute(
            f"SELECT {sqlp.label_sql} AS prediction, {sqlp.score_sql} AS score FROM t"
        ).fetchdf()
    finally:
        con.close()
    return out["prediction"].to_numpy(), out["score"].to_numpy()


class TestMLtoSQL:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("lr", {"l1": 0.01}),
            ("dt", {"max_depth": 6}),
            ("gb", {"max_depth": 3, "n_estimators": 10}),
            ("rf", {"max_depth": 4, "n_estimators": 7}),
        ],
    )
    def test_duckdb_matches_runtime(self, frame, kind, kw):
        p = _ir(frame, kind, **kw)
        sqlp = compile_to_sql(p)
        label_sql, score_sql = _duck_eval(sqlp, frame)
        label_rt, score_rt = onnx_rt.run(p, frame)
        mismatch = np.mean(label_sql != label_rt)
        assert mismatch <= 0.003, f"label mismatch rate {mismatch}"
        close = np.isclose(score_sql, score_rt, atol=1e-5)
        assert close.mean() >= 0.997

    def test_sql_after_pruning_still_correct(self, frame):
        p = _ir(frame, "dt", max_depth=8)
        res = apply_predicate_pruning(p, [Predicate("ward", "=", "icu")])
        pushed = apply_projection_pushdown(res.pipeline)
        sqlp = compile_to_sql(pushed.pipeline)
        sub = frame[frame.ward == "icu"]
        label_sql, _ = _duck_eval(sqlp, sub)
        label_rt, _ = onnx_rt.run(p, sub)
        assert np.mean(label_sql != label_rt) <= 0.003

    def test_onehot_split_compiles_to_equality(self, frame):
        p = _ir(frame, "dt", max_depth=6)
        sqlp = compile_to_sql(p)
        # no CASE-encoded indicator should survive for one-hot splits
        assert "THEN 1.0 ELSE 0.0" not in sqlp.label_sql

    def test_null_category_takes_absent_branch(self):
        # one split on the 'a' indicator: present -> label 1, absent -> 0;
        # a NULL sets no indicator in the runtime, so it is "absent" in SQL too
        from repro.ir.graph import Node, Pipeline
        from repro.ir.tree import LEAF, Tree

        inp = Node("input", [], {"name": "c", "kind": "cat"})
        onehot = Node("onehot", [inp.id], {"categories": ["a", "b"]})
        tree = Tree([0, 0, 0], [0.5, 0, 0], [1, LEAF, LEAF], [2, LEAF, LEAF],
                    [[0, 0], [1, 0], [0, 1]])
        model = Node("tree_ensemble", [onehot.id],
                     {"trees": [tree], "kind": "dt", "base_score": 0.0})
        p = Pipeline({n.id: n for n in (inp, onehot, model)}, model.id, ["c"])
        pdf = pd.DataFrame({"c": ["a", "b", None]})
        label_sql, _ = _duck_eval(compile_to_sql(p), pdf)
        np.testing.assert_array_equal(onnx_rt.run(p, pdf)[0], [1, 0, 0])
        np.testing.assert_array_equal(label_sql, [1, 0, 0])

    @pytest.mark.parametrize(
        "kind,kw",
        [("lr", {}), ("dt", {"max_depth": 6}), ("gb", {"max_depth": 3, "n_estimators": 15})],
    )
    def test_null_rows_match_a_category_learned_from_nulls(self, frame, kind, kw):
        # the runtime reads NULL as 'None', so a NULL row sets the 'None'
        # indicator; labels of NULL rows are flipped so the model uses it
        pdf = frame.astype({"ward": object})
        nulls = pdf.index[::7]
        pdf.loc[nulls, "ward"] = None
        pdf.loc[nulls, "label"] = 1 - pdf.loc[nulls, "label"]
        p = _ir(pdf, kind, **kw)
        assert any(s.category == "None" for s in model_input_slots(p))
        label_sql, _ = _duck_eval(compile_to_sql(p), pdf)
        np.testing.assert_array_equal(label_sql, onnx_rt.run(p, pdf)[0])

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_split_boundary_rows_match_runtime(self, frame, kind):
        # rows on a split boundary: SQL must round as the runtime does
        p = _ir(frame, kind, max_depth=6, n_estimators=8)
        rows = boundary_rows(frame, p)
        label_sql, _ = _duck_eval(compile_to_sql(p), rows)
        np.testing.assert_array_equal(label_sql, onnx_rt.run(p, rows)[0])

    def test_string_literal_escaping(self):
        pdf = pd.DataFrame(
            {"c": ["o'brien", "smith"] * 200, "label": [1, 0] * 200}
        )
        tp = fit_pipeline(pdf, [], ["c"], "label", "dt", max_depth=2)
        p = build_pipeline_ir(tp)
        sqlp = compile_to_sql(p)
        label_sql, _ = _duck_eval(sqlp, pdf)
        np.testing.assert_array_equal(label_sql, onnx_rt.run(p, pdf)[0])

    def test_lr_zero_weights_not_emitted(self, frame):
        p = _ir(frame, "lr", l1=0.3)
        coef = p.model_node.attrs["coef"]
        assert np.any(coef == 0.0)
        sqlp = compile_to_sql(p)
        # count arithmetic terms: zero-weight slots must be absent
        assert sqlp.score_sql.count("*") <= 2 * int(np.sum(coef != 0.0)) + 2
        # ... unless every coefficient is asked for, as the MADlib baseline does
        def zero_terms(sql: str) -> int:
            return sum(sql.count(f" * {_lit(z)}") for z in (0.0, -0.0))

        assert zero_terms(sqlp.output_sql) == 0
        dense = compile_model_sql(p.model_node, model_input_slots(p), every_coef=True)
        assert zero_terms(dense.output_sql) == int(np.sum(coef == 0.0))

    def test_gb_includes_base_score(self, frame):
        p = _ir(frame, "gb", max_depth=2, n_estimators=3)
        from repro.core.ml2sql import _lit

        base = p.model_node.attrs["base_score"]
        assert _lit(float(base)) in compile_to_sql(p).score_sql


class TestMLtoDNN:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("lr", {"l1": 0.01}),
            ("dt", {"max_depth": 6}),
            ("gb", {"max_depth": 3, "n_estimators": 10}),
            ("rf", {"max_depth": 4, "n_estimators": 7}),
        ],
    )
    def test_gemm_matches_runtime(self, frame, kind, kw):
        p = _ir(frame, kind, **kw)
        dnn = compile_to_dnn(p)
        l_dnn, s_dnn = dnn.predict(frame)
        l_rt, s_rt = onnx_rt.run(p, frame)
        assert np.mean(l_dnn != l_rt) <= 0.008  # §7.4: < 0.8%
        assert np.isclose(s_dnn, s_rt, atol=1e-3).mean() >= 0.99

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    @pytest.mark.parametrize("strategy,max_internal", [("gemm", 10**6), ("traversal", 0)])
    def test_split_boundary_rows_match_runtime(
        self, frame, kind, strategy, max_internal, monkeypatch
    ):
        # rows on a split boundary, through both tree strategies
        import repro.runtime.dnn_rt as dnn_rt

        monkeypatch.setattr(dnn_rt, "GEMM_MAX_INTERNAL", max_internal)
        p = _ir(frame, kind, max_depth=6, n_estimators=8)
        dnn = compile_to_dnn(p)
        assert dnn.strategy == strategy
        rows = boundary_rows(frame, p)
        np.testing.assert_array_equal(dnn.predict(rows)[0], onnx_rt.run(p, rows)[0])

    def test_gemm_single_tree_structure(self, frame):
        p = _ir(frame, "dt", max_depth=4)
        t = p.model_node.attrs["trees"][0]
        tg = compile_tree(t, p.n_model_features())
        internal = t.n_nodes - t.n_leaves
        assert tg.A.shape == (p.n_model_features(), internal)
        assert tg.C.shape == (internal, t.n_leaves)
        assert tg.V.shape == (t.n_leaves, 2)

    def test_gemm_single_leaf_tree(self):
        from repro.ir.tree import leaf_tree

        tg = compile_tree(leaf_tree([0.3, 0.7]), 5)
        out = tg.run(np.zeros((4, 5), dtype=np.float32))
        np.testing.assert_allclose(out, [[0.3, 0.7]] * 4)

    def test_flops_grow_with_model_size(self, frame):
        small = compile_to_dnn(_ir(frame, "gb", max_depth=2, n_estimators=5))
        big = compile_to_dnn(_ir(frame, "gb", max_depth=5, n_estimators=40))
        assert big.flops(1000) > small.flops(1000)
        assert big.param_bytes() > small.param_bytes()


def _once(fn) -> float:
    import time

    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestGpuModel:
    def test_bigger_models_benefit_more(self, frame):
        """The paper's §7.3 shape: modeled GPU speedup over measured CPU
        grows with ensemble complexity."""
        import time

        rows = 60_000
        big_frame = frame.sample(rows, replace=True, random_state=0).reset_index(
            drop=True
        )
        ratios = []
        for n_est, depth in [(5, 2), (80, 6)]:
            p = _ir(frame, "gb", max_depth=depth, n_estimators=n_est)
            dnn = compile_to_dnn(p)
            cpu_s = min(
                _once(lambda: dnn.predict(big_frame)) for _ in range(3)
            )
            gpu = modeled_gpu_seconds(dnn, rows)
            ratios.append(cpu_s / gpu.total_s)
        assert ratios[1] > ratios[0]

    def test_estimate_components_positive(self, frame):
        dnn = compile_to_dnn(_ir(frame, "gb", max_depth=3, n_estimators=5))
        est = modeled_gpu_seconds(dnn, 50_000)
        assert est.total_s > 0
        assert est.total_s == pytest.approx(
            est.transfer_s + est.compute_s + est.overhead_s
        )

    def test_more_rows_cost_more(self, frame):
        dnn = compile_to_dnn(_ir(frame, "gb", max_depth=3, n_estimators=5))
        a = modeled_gpu_seconds(dnn, 10_000).total_s
        b = modeled_gpu_seconds(dnn, 1_000_000).total_s
        assert b > a
