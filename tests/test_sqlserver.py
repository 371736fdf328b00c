"""Tests for the DuckDB-backed "SQL Server" engine and the MADlib-style
baseline: result parity across paths, DOP control, and the PostgreSQL
column-limit behaviour the paper reports."""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.parser import parse_prediction_query
from repro.core.predicate_pruning import Predicate
from repro.core.query import Join, PredictionQuery
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.ml.pipeline import fit_pipeline
from repro.runtime import dnn_rt, onnx_rt
from repro.runtime.dnn_rt import compile_to_dnn
from repro.sqlserver import engine
from repro.sqlserver.engine import SqlServerSim, data_select_sql, encoded_scan
from repro.sqlserver.madlib import madlib_supported, run_madlib
from tests.partitioned import partitioned_case


@pytest.fixture(scope="module")
def hosp():
    spec = ds.get_spec("hospital")
    tables = ds.generate("hospital", 4000, seed=61)
    frame = ds.joined_frame("hospital", 4000, seed=61)
    return spec, tables, frame


def _ir(spec, frame, kind, **kw):
    return fit_pipeline(
        frame, spec.num_cols, spec.cat_cols, ds.LABEL, kind,
        cat_domains=spec.cat_domains or None, **kw,
    )


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
        p = fit_pipeline(t, ["x"], ["name"], "label", "dt", max_depth=3)
        tables = {"people": t.drop(columns="label")}
        q = parse_prediction_query(
            "SELECT PREDICT(m, *) FROM people WHERE name = 'O''Brien'",
            {"m": p}, {"people": ["name", "x"]},
        )
        assert q.where[0].value == "O'Brien"
        assert sum(self._counts(tables, q, p).values()) == (names == "O'Brien").sum()

    @pytest.mark.parametrize("text,value", [
        ("1e-05", 1e-05), (".5", 0.5), ("-2.5E+3", -2500.0), ("+3", 3.0),
        ("7.", 7.0), ("1.00000000000000000e+02", 100.0),
    ])
    def test_numeric_literal_forms(self, text, value):
        """E-notation, a leading '.' and a sign parse; so the constants
        :func:`repro.core.ml2sql._lit` writes parse back exactly."""
        p = fit_pipeline(
            pd.DataFrame({"x": [0.0, 1.0, 2.0, 3.0], "label": [0, 0, 1, 1]}),
            ["x"], [], "label", "lr",
        )
        q = parse_prediction_query(
            f"SELECT PREDICT(m, *) FROM t WHERE x >= {text} AND x < {engine._lit(value)}",
            {"m": p}, {"t": ["x"]},
        )
        assert [w.value for w in q.where] == [value, value]

    def test_numeric_constant_on_a_row_value(self):
        """A WHERE constant equal to a stored double keeps that row: DuckDB
        reads a plain decimal literal as DECIMAL, whose cast to DOUBLE is
        one ulp off for some values."""
        rng = np.random.default_rng(8)
        t = pd.DataFrame({"x": rng.uniform(0, 100, 400) * np.exp(rng.uniform(-5, 5, 400))})
        t["label"] = (t.x > 10).astype(int)
        p = fit_pipeline(t, ["x"], [], "label", "lr")
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

    def test_model_without_inputs(self):
        """An all-zero L1 model projects every input away; the scan still
        yields one row per qualifying row."""
        rng = np.random.default_rng(2)
        t = pd.DataFrame({"x": rng.normal(size=200), "c": rng.choice(["a", "b"], 200)})
        t["label"] = (rng.random(200) < 0.3).astype(int)
        p = fit_pipeline(t, ["x"], ["c"], "label", "lr", l1=50.0)
        q = parse_prediction_query(
            "SELECT PREDICT(m, *) FROM t WHERE x > 0", {"m": p}, {"t": ["x", "c"]}
        )
        eng = SqlServerSim({"t": t.drop(columns="label")}, threads=2)
        try:
            for runtime in ("none", "sql"):
                plan = RavenOptimizer(OptimizerConfig(runtime=runtime)).optimize(q)
                assert plan.input_cols == [] and plan.runtime == runtime
                res = (eng.run_raven_sql if runtime == "sql" else eng.run_raven_predict)(plan)
                assert dict(zip(res.agg["prediction"], res.agg["n"])) == {0: (t.x > 0).sum()}
        finally:
            eng.close()

    def test_string_range_on_a_categorical(self):
        """A range conjunct with a string bound bounds no slot: the model is
        left unpruned and the filter still runs."""
        rng = np.random.default_rng(5)
        t = pd.DataFrame({"x": rng.normal(size=400), "c": rng.choice(["a", "b", "c"], 400)})
        t["label"] = ((t.x > 0) ^ (t.c == "b")).astype(int)
        p = fit_pipeline(t, ["x"], ["c"], "label", "dt", max_depth=4)
        q = parse_prediction_query(
            "SELECT PREDICT(m, *) FROM t WHERE c >= 'b'", {"m": p}, {"t": ["x", "c"]}
        )
        label, _ = onnx_rt.run(p, t[t.c >= "b"])
        want = dict(zip(*np.unique(label, return_counts=True)))
        eng = SqlServerSim({"t": t.drop(columns="label")}, threads=2)
        try:
            for runtime in ("none", "sql"):
                plan = RavenOptimizer(OptimizerConfig(runtime=runtime)).optimize(q)
                res = (eng.run_raven_sql if runtime == "sql" else eng.run_raven_predict)(plan)
                assert dict(zip(res.agg["prediction"], res.agg["n"])) == want, runtime
        finally:
            eng.close()

    def test_string_equality_on_a_numeric_input(self):
        """``x = 'b'`` on a numeric input binds and prunes nothing; the
        engine reports its own cast error."""
        rng = np.random.default_rng(5)
        t = pd.DataFrame({"x": rng.normal(size=400), "y": rng.normal(size=400)})
        t["label"] = (t.x > t.y).astype(int)
        p = fit_pipeline(t, ["x", "y"], [], "label", "dt", max_depth=3)
        q = parse_prediction_query(
            "SELECT PREDICT(m, *) FROM t WHERE x = 'b'", {"m": p}, {"t": ["x", "y"]}
        )
        eng = SqlServerSim({"t": t.drop(columns="label")}, threads=2)
        try:
            for runtime in ("none", "sql"):
                plan = RavenOptimizer(OptimizerConfig(runtime=runtime)).optimize(q)
                assert plan.pruned_tree_nodes == 0 and "x" in plan.input_cols
                run = eng.run_raven_sql if runtime == "sql" else eng.run_raven_predict
                with pytest.raises(duckdb.ConversionException):
                    run(plan)
        finally:
            eng.close()

    @pytest.mark.parametrize("kind", ["lr", "gb"])
    def test_dnn_plan_is_scored_by_dnn_rt(self, hosp, monkeypatch, kind):
        spec, tables, frame = hosp
        p = _ir(spec, frame, kind, l1=0.02, max_depth=4, n_estimators=10)
        plan = RavenOptimizer(OptimizerConfig(runtime="dnn")).optimize(
            dataset_query(spec, p, tables)
        )
        assert plan.runtime == "dnn"
        label, _ = compile_to_dnn(plan.pipeline).predict(frame)

        def onnx_run(*args):
            raise AssertionError("a dnn plan scored by onnx_rt")

        monkeypatch.setattr(engine.onnx_rt, "run", onnx_run)
        eng = SqlServerSim(tables, threads=2)
        try:
            res = eng.run_raven_predict(plan)
        finally:
            eng.close()
        want = dict(zip(*np.unique(label, return_counts=True)))
        assert dict(zip(res.agg["prediction"], res.agg["n"])) == want


def _oracle_counts(runtime, p, rows):
    """Label counts of the unoptimized pipeline on the plan's runtime."""
    if runtime == "dnn":
        label, _ = compile_to_dnn(p).predict(rows)
    else:
        label, _ = onnx_rt.run(p, rows)
    return dict(zip(*np.unique(label, return_counts=True)))


class TestPartitionedPlan:
    """§4.2's per-partition models on the ML-runtime path: each row is
    scored by its partition's model, and a row whose key is NULL or has no
    model by the unpartitioned one."""

    def _plan(self, runtime):
        t, q, sample = partitioned_case()
        plan = RavenOptimizer(
            OptimizerConfig(enable_data_induced=True, runtime=runtime)
        ).optimize(q, partition_sample=sample)
        assert plan.runtime == runtime
        assert sorted(plan.partition_models.models) == ["p0", "p1", "p2", "p3"]
        return t, plan

    def _run(self, t, plan):
        eng = SqlServerSim({"t": t}, threads=2)
        try:
            res = eng.run_raven_predict(plan)
        finally:
            eng.close()
        return dict(zip(res.agg["prediction"], res.agg["n"]))

    @pytest.mark.parametrize("runtime", ["none", "dnn"])
    def test_null_and_unseen_keys_keep_labels(self, runtime):
        t, plan = self._plan(runtime)
        assert self._run(t, plan) == _oracle_counts(runtime, plan.pipeline, t)

    def test_rows_go_to_their_partition_model(self, monkeypatch):
        t, plan = self._plan("none")
        scored: dict[int, int] = {}
        run = onnx_rt.run

        def spy(p, batch):
            scored[id(p)] = scored.get(id(p), 0) + batch.num_rows
            return run(p, batch)

        monkeypatch.setattr(onnx_rt, "run", spy)
        self._run(t, plan)
        models = plan.partition_models.models
        want = {id(models[k]): n for k, n in t.k.value_counts().items() if k in models}
        want[id(plan.pipeline)] = int((t.k.isna() | (t.k == "p4")).sum())
        assert scored == want

    def test_dnn_compiles_each_partition_model_once(self, monkeypatch):
        t, plan = self._plan("dnn")
        want = _oracle_counts("dnn", plan.pipeline, t)
        compiled = []
        compile = dnn_rt.compile_to_dnn

        def spy(p):
            compiled.append(id(p))
            return compile(p)

        monkeypatch.setattr(dnn_rt, "compile_to_dnn", spy)
        assert self._run(t, plan) == want
        models = plan.partition_models.models.values()
        assert sorted(compiled) == sorted([id(plan.pipeline)] + [id(m) for m in models])


@pytest.fixture(scope="module")
def star():
    """A fact and two dims: NULLs in a dim categorical, a 300-category fact
    column and an integer-typed categorical."""
    rng = np.random.default_rng(17)
    n, n_cust, n_prod = 3000, 200, 40
    customers = pd.DataFrame({
        "cust_id": np.arange(n_cust),
        "region": rng.choice(["north", "south", "east"], n_cust).astype(object),
        "age": rng.uniform(18, 90, n_cust),
    })
    customers.loc[::9, "region"] = None
    products = pd.DataFrame({
        "prod_id": np.arange(n_prod),
        "category": rng.choice(["toys", "food", "tools"], n_prod),
        "grade": rng.integers(1, 4, n_prod),
    })
    orders = pd.DataFrame({
        "cust_id": rng.integers(0, n_cust, n),
        "prod_id": rng.integers(0, n_prod, n),
        "amount": rng.exponential(50, n),
        "channel": rng.choice(["web", "store", "phone"], n),
        "sku": [f"s{v}" for v in rng.integers(0, 300, n)],
    })
    frame = orders.merge(customers, on="cust_id").merge(products, on="prod_id")
    frame["label"] = (
        (frame.amount > 40) & (frame.region.isna() | (frame.region == "south"))
        | (frame.channel == "web") & (frame.grade > 1)
        | frame.sku.isin([f"s{i}" for i in range(0, 300, 3)])
        | (frame.category == "toys") & (frame.age > 50)
    ).astype(int)
    tables = {"orders": orders, "customers": customers, "products": products}
    return tables, frame


def _star_query(tables, p, where=()):
    return PredictionQuery(
        fact="orders",
        pipeline=p,
        joins=[Join("customers", "cust_id", "cust_id"), Join("products", "prod_id", "prod_id")],
        where=list(where),
        table_cols={name: list(t.columns) for name, t in tables.items()},
    )


class TestEncodedScan:
    """``run_raven_predict`` looks one-hot columns up in the engine; its
    counts equal the string scan's on the same optimized pipeline."""

    CATS = ["channel", "sku", "region", "category"]

    @staticmethod
    def _fit(frame, kind, cats):
        kw = {"dt": {"max_depth": 8}, "gb": {"max_depth": 3, "n_estimators": 10}}.get(kind, {})
        return fit_pipeline(
            frame, ["amount", "age"], cats, "label", kind,
            # 'fax' is a model category absent from the data
            cat_domains={"channel": ["web", "store", "phone", "fax"]}, **kw,
        )

    @pytest.fixture(scope="class")
    def models(self, star):
        return {kind: self._fit(star[1], kind, self.CATS) for kind in ("lr", "dt", "gb")}

    def _check(self, tables, plan, encoded):
        eng = SqlServerSim(tables, threads=2)
        try:
            scan = encoded_scan(plan.query, plan.pipeline, eng.types)
            assert (scan is not None) == encoded
            base = eng.run_predict_statement(plan.query, plan.pipeline)
            got = eng.run_raven_predict(plan)
        finally:
            eng.close()
        pd.testing.assert_frame_equal(base.agg, got.agg)
        return scan, base.agg

    @pytest.mark.parametrize("kind", ["lr", "dt", "gb"])
    @pytest.mark.parametrize("where", [
        (),
        (Predicate("channel", "=", "web"), Predicate("region", "=", "south")),
        (Predicate("amount", ">", 1e9),),
    ], ids=["all", "eq", "empty"])
    @pytest.mark.parametrize("cfg", [
        OptimizerConfig(runtime="none"),
        # WHERE columns stay model inputs, so their filters run on encoded columns
        OptimizerConfig(enable_predicate_pruning=False, runtime="none"),
        # every category stays, 'fax' included
        OptimizerConfig.no_opt(),
    ], ids=["raven", "no-predicate-pruning", "no-opt"])
    def test_counts_equal_string_scan(self, star, models, kind, where, cfg):
        tables, _ = star
        plan = RavenOptimizer(cfg).optimize(_star_query(tables, models[kind], where))
        scan, agg = self._check(tables, plan, encoded=True)
        assert set(scan.dictionaries) == set(self.CATS) & set(plan.input_cols)
        if where and where[0].value == 1e9:
            assert agg.empty
        else:
            assert agg["n"].sum() > 0

    def test_codes_past_int8(self, star, models):
        tables, _ = star
        plan = RavenOptimizer(OptimizerConfig.no_opt()).optimize(
            _star_query(tables, models["lr"])
        )
        scan, _ = self._check(tables, plan, encoded=True)
        assert len(scan.dictionaries["sku"]) > 256
        assert "None" in scan.dictionaries["region"].to_pylist()  # learned from NULLs
        assert "fax" in scan.dictionaries["channel"].to_pylist()  # not in the data
        assert "AS SMALLINT) AS sku" in scan.sql

    def test_integer_categorical_takes_string_scan(self, star):
        tables, frame = star
        p = self._fit(frame, "dt", self.CATS + ["grade"])
        plan = RavenOptimizer(OptimizerConfig(runtime="none")).optimize(_star_query(tables, p))
        assert "grade" in plan.input_cols
        self._check(tables, plan, encoded=False)

    def test_expedia_plan_is_encoded(self, monkeypatch):
        spec = ds.get_spec("expedia")
        tables = ds.generate("expedia", 2000, seed=64)
        frame = ds.joined_frame("expedia", 2000, seed=64)
        p = _ir(spec, frame, "dt", max_depth=6)
        plan = RavenOptimizer(OptimizerConfig(runtime="none")).optimize(
            dataset_query(spec, p, tables)
        )
        cats = [c for c in plan.input_cols if c in spec.cat_cols]
        assert cats and plan.query.joins
        seen, real_run = [], onnx_rt.run

        def run(pipeline, batch):
            seen.append(batch.schema)
            return real_run(pipeline, batch)

        monkeypatch.setattr(engine.onnx_rt, "run", run)
        eng = SqlServerSim(tables, threads=2)
        try:
            eng.run_raven_predict(plan)
        finally:
            eng.close()
        assert seen
        for schema in seen:
            for c in cats:
                assert pa.types.is_dictionary(schema.field(c).type), c


class TestSharedJoinKey:
    """A WHERE on a join key the fact and a dim share by name (Expedia's
    ``prop_id``) reads the fact's column, on each DuckDB path, and counts
    what the pandas oracle counts."""

    @pytest.fixture(scope="class")
    def expedia(self):
        spec = ds.get_spec("expedia")
        tables = ds.generate("expedia", 3000, seed=65)
        frame = ds.joined_frame("expedia", 3000, seed=65)
        return spec, tables, frame, _ir(spec, frame, "dt", max_depth=6)

    @pytest.mark.parametrize("path", ["predict_statement", "raven_predict", "raven_sql"])
    def test_counts_equal_oracle(self, expedia, path):
        spec, tables, frame, p = expedia
        q = dataset_query(spec, p, tables, where=[Predicate("prop_id", "<", 50)])
        label, _ = onnx_rt.run(p, frame[frame.prop_id < 50])
        want = {int(k): int(n) for k, n in zip(*np.unique(label, return_counts=True))}
        eng = SqlServerSim(tables, threads=2)
        try:
            if path == "predict_statement":
                res = eng.run_predict_statement(q, p)
            elif path == "raven_predict":
                res = eng.run_raven_predict(
                    RavenOptimizer(OptimizerConfig(runtime="none")).optimize(q)
                )
            else:
                res = eng.run_raven_sql(RavenOptimizer(OptimizerConfig(runtime="sql")).optimize(q))
        finally:
            eng.close()
        assert sum(want.values()) > 0
        assert dict(zip(res.agg["prediction"].tolist(), res.agg["n"].tolist())) == want

    def test_only_shared_keys_are_qualified(self, expedia):
        spec, tables, _, p = expedia
        q = dataset_query(spec, p, tables, where=[
            Predicate("prop_id", "<", 50), Predicate("price_usd", ">", 100.0),
        ])
        sql = data_select_sql(q, ["prop_id", "price_usd"])
        assert sql.startswith("SELECT searches.prop_id, price_usd FROM searches")
        assert sql.endswith(
            "WHERE searches.prop_id < 5.00000000000000000e+01"
            " AND price_usd > 1.00000000000000000e+02"
        )


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

    @pytest.mark.parametrize(
        "kind,kw", [("lr", {"l1": 0.3}), ("gb", {"max_depth": 3, "n_estimators": 10})]
    )
    def test_lr_and_gb_counts_equal_predict_statement(self, hosp, kind, kw):
        spec, tables, frame = hosp
        p = _ir(spec, frame, kind, **kw)
        if kind == "lr":  # zero weights, which MADlib still evaluates
            assert np.any(p.model_node.attrs["coef"] == 0.0)
        q = dataset_query(spec, p, tables)
        res = run_madlib(tables, q, p)
        eng = SqlServerSim(tables, threads=1)
        try:
            base = eng.run_predict_statement(q, p)
        finally:
            eng.close()
        pd.testing.assert_frame_equal(res.agg, base.agg, check_dtype=False)

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
