"""Tests for the DuckDB-backed "SQL Server" engine and the MADlib-style
baseline: result parity across paths, DOP control, and the PostgreSQL
column-limit behaviour the paper reports."""
import numpy as np
import pandas as pd
import pytest

from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.parser import parse_prediction_query
from repro.core.predicate_pruning import Predicate
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.ir.builder import build_pipeline_ir
from repro.ml.pipeline import fit_pipeline
from repro.runtime import onnx_rt
from repro.sqlserver.engine import SqlServerSim, data_select_sql
from repro.sqlserver.madlib import madlib_supported, run_madlib


@pytest.fixture(scope="module")
def hosp():
    spec = ds.get_spec("hospital")
    tables = ds.generate("hospital", 4000, seed=61)
    frame = ds.joined_frame("hospital", 4000, seed=61)
    return spec, tables, frame


def _ir(spec, frame, kind, **kw):
    tp = fit_pipeline(
        frame, spec.num_cols, spec.cat_cols, ds.LABEL, kind,
        cat_domains=spec.cat_domains or None, **kw,
    )
    return build_pipeline_ir(tp)


class TestDataSelectSql:
    def test_single_table(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=4)
        q = dataset_query(spec, p, tables)
        sql = data_select_sql(q, ["bmi", "asthma"])
        assert sql.startswith("SELECT bmi, asthma FROM hospital")

    def test_joins_and_where(self):
        spec = ds.get_spec("expedia")
        tables = ds.generate("expedia", 500, seed=62)
        frame = ds.joined_frame("expedia", 500, seed=62)
        p = _ir(spec, frame, "dt", max_depth=3)
        q = dataset_query(
            spec, p, tables, where=[Predicate("price_usd", ">", 100.0)]
        )
        sql = data_select_sql(q, ["price_usd"])
        assert "JOIN hotels ON searches.prop_id = hotels.prop_id" in sql
        # E-notation: DuckDB parses it as the exact DOUBLE, not a DECIMAL
        assert "WHERE price_usd > 1.00000000000000000e+02" in sql


class TestSqlServerSim:
    @pytest.mark.parametrize("kind,kw", [("dt", {"max_depth": 6}), ("lr", {"l1": 0.02})])
    def test_raven_sql_matches_predict_statement(self, hosp, kind, kw):
        spec, tables, frame = hosp
        p = _ir(spec, frame, kind, **kw)
        q = dataset_query(spec, p, tables)
        plan = RavenOptimizer(OptimizerConfig(runtime="sql")).optimize(q)
        assert plan.runtime == "sql"
        eng = SqlServerSim(tables, threads=4)
        try:
            base = eng.run_predict_statement(q, p)
            opt = eng.run_raven_sql(plan)
        finally:
            eng.close()
        a = base.agg.set_index("prediction")["n"]
        b = opt.agg.set_index("prediction")["n"]
        assert abs(a.sub(b, fill_value=0)).sum() <= 0.006 * len(frame)

    def test_where_predicate_respected(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=5)
        q = dataset_query(spec, p, tables, where=[Predicate("asthma", "=", "1")])
        eng = SqlServerSim(tables, threads=4)
        try:
            res = eng.run_predict_statement(q, p)
        finally:
            eng.close()
        assert res.agg["n"].sum() == (frame.asthma == "1").sum()

    def test_dop_control(self, hosp):
        spec, tables, frame = hosp
        for threads in (1, 16):
            eng = SqlServerSim(tables, threads=threads)
            try:
                got = eng.con.execute("SELECT current_setting('threads')").fetchone()[0]
                assert int(got) == threads
            finally:
                eng.close()

    def test_raven_predict_path_prunes_columns(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=3)
        q = dataset_query(spec, p, tables)
        plan = RavenOptimizer(OptimizerConfig(runtime="none")).optimize(q)
        assert len(plan.input_cols) < len(p.input_cols)
        eng = SqlServerSim(tables, threads=4)
        try:
            base = eng.run_predict_statement(q, p)
            opt = eng.run_raven_predict(plan)
        finally:
            eng.close()
        pd.testing.assert_frame_equal(base.agg, opt.agg)

    def _counts(self, tables, q, p):
        eng = SqlServerSim(tables, threads=2)
        try:
            res = eng.run_predict_statement(q, p)
        finally:
            eng.close()
        return dict(zip(res.agg["prediction"].tolist(), res.agg["n"].tolist()))

    def test_where_matching_no_row(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=5)
        q = dataset_query(spec, p, tables, where=[Predicate("bmi", ">", 1e9)])
        assert self._counts(tables, q, p) == {}

    def test_output_filter_prediction_1(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "gb", max_depth=3, n_estimators=10)
        q = dataset_query(spec, p, tables, output_filter=("prediction", 1))
        label, _ = onnx_rt.run(p, frame)
        assert self._counts(tables, q, p) == {1: int((label == 1).sum())}

    def test_quoted_string_literal(self):
        rng = np.random.default_rng(3)
        names = rng.choice(["O'Brien", "Smith", "D'Arcy"], 300)
        t = pd.DataFrame({"name": names, "x": rng.normal(size=300)})
        t["label"] = (t.x > 0).astype(int)
        p = build_pipeline_ir(fit_pipeline(t, ["x"], ["name"], "label", "dt", max_depth=3))
        tables = {"people": t.drop(columns="label")}
        q = parse_prediction_query(
            "SELECT PREDICT(m, *) FROM people WHERE name = 'O''Brien'",
            {"m": p}, {"people": ["name", "x"]},
        )
        assert q.where[0].value == "O'Brien"
        assert sum(self._counts(tables, q, p).values()) == (names == "O'Brien").sum()

    def test_numeric_constant_on_a_row_value(self):
        """A WHERE constant equal to a stored double keeps that row: DuckDB
        reads a plain decimal literal as DECIMAL, whose cast to DOUBLE is
        one ulp off for some values."""
        rng = np.random.default_rng(8)
        t = pd.DataFrame({"x": rng.uniform(0, 100, 400) * np.exp(rng.uniform(-5, 5, 400))})
        t["label"] = (t.x > 10).astype(int)
        p = build_pipeline_ir(fit_pipeline(t, ["x"], [], "label", "lr"))
        tables = {"t": t.drop(columns="label")}
        eng = SqlServerSim(tables, threads=2)
        try:
            for v in t.x.to_numpy()[:60]:
                q = parse_prediction_query(
                    f"SELECT PREDICT(m, *) FROM t WHERE x >= {v!r}", {"m": p}, {"t": ["x"]}
                )
                got = eng.run_predict_statement(q, p).agg["n"].sum()
                assert got == (t.x >= v).sum(), v
        finally:
            eng.close()


class TestMadlib:
    def test_matches_engine_result(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=5)
        q = dataset_query(spec, p, tables)
        res = run_madlib(tables, q, p)
        eng = SqlServerSim(tables, threads=1)
        try:
            base = eng.run_predict_statement(q, p)
        finally:
            eng.close()
        a = base.agg.set_index("prediction")["n"]
        b = res.agg.set_index("prediction")["n"]
        assert abs(a.sub(b, fill_value=0)).sum() <= 0.006 * len(frame)

    def test_rf_supported(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "rf", max_depth=4, n_estimators=5)
        q = dataset_query(spec, p, tables)
        res = run_madlib(tables, q, p)
        assert res.agg["n"].sum() == len(frame)

    def test_wide_datasets_hit_column_limit(self):
        """Expedia/Flights exceed PostgreSQL's 1,600 columns (paper skips)."""
        spec = ds.get_spec("expedia")
        frame = ds.joined_frame("expedia", 600, seed=63)
        p = _ir(spec, frame, "dt", max_depth=3)
        assert not madlib_supported(p)
        tables = ds.generate("expedia", 600, seed=63)
        q = dataset_query(spec, p, tables)
        with pytest.raises(ValueError, match="1600-column"):
            run_madlib(tables, q, p)

    def test_narrow_supported(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=4)
        assert madlib_supported(p)
