"""End-to-end Spark integration: RavenSession optimize+execute on all four
datasets, equivalence of optimized vs unoptimized plans, MLtoSQL checked
against the DuckDB oracle, join elimination, and the §4.2 partitioned path.
"""
import numpy as np
import pandas as pd
import pytest

from repro import oracle
from repro.core.optimizer import OptimizerConfig
from repro.core.predicate_pruning import Predicate
from repro.core.query import PredictionQuery
from repro.core.session import RavenSession, dataset_query
from repro.data import datasets as ds
from repro.ml.pipeline import fit_pipeline
from repro.runtime import spark_exec

N_ROWS = 3000


@pytest.fixture(scope="module")
def hospital_env(spark):
    spec = ds.get_spec("hospital")
    tables = ds.generate("hospital", N_ROWS, seed=31)
    catalog = spark_exec.register_pandas_tables(spark, tables)
    frame = ds.joined_frame("hospital", N_ROWS, seed=31)
    return spec, tables, catalog, frame


def _session(spark, catalog, tables, config):
    table_cols = {n: [c for c in p.columns if c != ds.LABEL] for n, p in tables.items()}
    return RavenSession(spark, catalog, table_cols, config=config)


def _pipeline(spec, frame, kind, **kw):
    return fit_pipeline(
        frame, spec.num_cols, spec.cat_cols, ds.LABEL, kind,
        cat_domains=spec.cat_domains or None, **kw,
    )


def _collect(df):
    pdf = df.select("prediction", "score").toPandas()
    return pdf.sort_values(["prediction", "score"]).reset_index(drop=True)


class TestHospitalEndToEnd:
    @pytest.mark.parametrize(
        "kind,kw",
        [
            ("lr", {"l1": 0.02}),
            ("dt", {"max_depth": 8}),
            ("gb", {"max_depth": 3, "n_estimators": 8}),
        ],
    )
    def test_optimized_equals_noopt(self, spark, hospital_env, kind, kw):
        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, kind, **kw)
        query = dataset_query(spec, p, tables)

        noopt = _session(spark, catalog, tables, OptimizerConfig.no_opt())
        raven = _session(
            spark, catalog, tables,
            OptimizerConfig(runtime="auto", strategy=None),
        )
        base = _collect(noopt.execute(query))
        opt = _collect(raven.execute(query))
        np.testing.assert_array_equal(
            base["prediction"].to_numpy(), opt["prediction"].to_numpy()
        )
        np.testing.assert_allclose(
            base["score"].to_numpy(), opt["score"].to_numpy(), atol=1e-5
        )

    def test_mltosql_path_matches_udf_and_oracle(self, spark, hospital_env):
        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, "dt", max_depth=6)
        query = dataset_query(spec, p, tables)
        raven = _session(spark, catalog, tables, OptimizerConfig(runtime="sql"))
        plan = raven.optimize(query)
        assert plan.runtime == "sql"
        df = raven.execute_plan(plan)
        assert df.columns == ["prediction", "score"]
        # oracle: run the very same generated SQL on DuckDB over the input
        oracle.assert_equivalent(
            df.groupBy("prediction").count().withColumnRenamed("count", "n"),
            f"SELECT {plan.sql.label_sql} AS prediction, COUNT(*) AS n "
            f"FROM hospital GROUP BY 1",
            hospital=tables["hospital"],
        )
        # and the UDF path agrees row-count-wise per class
        udf_df = _session(
            spark, catalog, tables, OptimizerConfig(runtime="none")
        ).execute(query)
        a = df.groupBy("prediction").count().toPandas().set_index("prediction")
        b = udf_df.groupBy("prediction").count().toPandas().set_index("prediction")
        assert abs(a["count"].sub(b["count"], fill_value=0)).sum() <= 0.006 * N_ROWS

    def test_mltosql_plan_holds_the_model_once(self, spark):
        # label and score both derive from one selected margin column
        rng = np.random.default_rng(3)
        t = pd.DataFrame({"a": rng.normal(size=2000), "b": rng.normal(size=2000)})
        t["label"] = (t.a + 0.3 * t.b > 0.8).astype(int)
        p = fit_pipeline(
            t, ["a", "b"], [], "label", "gb", max_depth=3, n_estimators=10
        )
        base = float(p.model_node.attrs["base_score"])
        assert abs(base) > 0.5  # a literal no other constant of the plan repeats
        # repartitioned, so Catalyst does not fold the query into local data
        catalog = spark_exec.register_pandas_tables(spark, {"t": t}, repartition=2)
        cols = {"t": ["a", "b"]}
        raven = RavenSession(spark, catalog, cols, config=OptimizerConfig(runtime="sql"))
        plan = raven.optimize(PredictionQuery(fact="t", pipeline=p, table_cols=cols))
        assert plan.runtime == "sql"
        df = raven.execute_plan(plan)
        text = df._jdf.queryExecution().optimizedPlan().toString()
        assert text.count(repr(base)) == 1

    def test_mltosql_on_split_boundaries_matches_runtime(self, spark, hospital_env):
        # Spark evaluates the generated SQL with the runtime's own rounding
        from pyspark.sql import functions as F

        from repro.core.ml2sql import compile_to_sql
        from repro.runtime import onnx_rt
        from tests.boundaries import boundary_rows

        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, "dt", max_depth=8)
        rows = boundary_rows(frame, p, n_rows=20)
        rows = rows[p.input_cols].assign(_i=np.arange(len(rows)))
        got = (
            spark.createDataFrame(rows)
            .select("_i", F.expr(compile_to_sql(p).label_sql).alias("prediction"))
            .toPandas()
            .sort_values("_i")
        )
        np.testing.assert_array_equal(got["prediction"], onnx_rt.run(p, rows)[0])

    def test_mltosql_null_rows_match_a_category_learned_from_nulls(self, spark, hospital_env):
        from pyspark.sql import functions as F

        from repro.core.ml2sql import compile_to_sql
        from repro.runtime import onnx_rt

        spec, tables, catalog, frame = hospital_env
        # no category domains: 'ward' learns the category 'None' from its NULLs,
        # and the flipped labels of those rows make the model split on it
        rows = frame.astype({"ward": object})
        nulls = rows.index[::7]
        rows.loc[nulls, "ward"] = None
        rows.loc[nulls, ds.LABEL] = 1 - rows.loc[nulls, ds.LABEL]
        p = fit_pipeline(
            rows, spec.num_cols, spec.cat_cols, ds.LABEL, "dt", max_depth=8
        )
        rows = rows[p.input_cols].assign(_i=np.arange(len(rows)))
        got = (
            spark.createDataFrame(rows)
            .select("_i", F.expr(compile_to_sql(p).label_sql).alias("prediction"))
            .toPandas()
            .sort_values("_i")
        )
        np.testing.assert_array_equal(got["prediction"], onnx_rt.run(p, rows)[0])

    def test_where_predicate_applied_and_model_pruned(self, spark, hospital_env):
        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, "dt", max_depth=10)
        preds = [Predicate("asthma", "=", "1")]
        query = dataset_query(spec, p, tables, where=preds)
        raven = _session(spark, catalog, tables, OptimizerConfig(runtime="none"))
        plan = raven.optimize(query)
        assert "asthma" not in plan.input_cols
        df = raven.execute_plan(plan)
        out = df.toPandas()
        expected = frame[frame.asthma == "1"]
        assert len(out) == len(expected)

    def test_output_filter(self, spark, hospital_env):
        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, "dt", max_depth=8)
        query = dataset_query(spec, p, tables, output_filter=("prediction", 1))
        raven = _session(spark, catalog, tables, OptimizerConfig(runtime="none"))
        out = raven.execute(query).toPandas()
        assert (out["prediction"] == 1).all()
        noopt = _session(spark, catalog, tables, OptimizerConfig.no_opt())
        base = noopt.execute(
            dataset_query(spec, p, tables)
        ).toPandas()
        assert len(out) == int((base["prediction"] == 1).sum())

    @pytest.mark.parametrize("runtime", ["onnx", "dnn", "reference", "sql"])
    @pytest.mark.parametrize("kind", ["lr", "dt"])
    def test_udf_returns_typed_predictions_only(self, hospital_env, runtime, kind):
        # the tensor runtime scores linear models in float32; the UDF must
        # still hand Spark the declared long/double columns, and the MLtoSQL
        # path the same two
        from functools import partial

        from repro.core.ml2sql import compile_to_sql
        from repro.runtime import onnx_rt, reference_rt
        from repro.runtime.dnn_rt import compile_to_dnn

        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, kind, max_depth=5, l1=0.02)
        df = spark_exec.build_input_df(catalog, dataset_query(spec, p, tables), p.input_cols)
        if runtime == "sql":
            out = spark_exec.with_predict_sql(df, compile_to_sql(p))
        else:
            scorer = {
                "onnx": partial(onnx_rt.run, p),
                "dnn": compile_to_dnn(p).predict,
                "reference": lambda b: reference_rt.run(p, b.to_pandas()),
            }[runtime]
            out = spark_exec.with_predict_udf(df, scorer)
        assert out.dtypes == [("prediction", "bigint"), ("score", "double")]
        got = out.toPandas()
        label, _ = onnx_rt.run(p, frame)
        assert np.bincount(got["prediction"], minlength=2).tolist() == np.bincount(
            label, minlength=2).tolist()

    def test_partitioned_models_equal_global(self, spark, hospital_env):
        spec, tables, catalog, frame = hospital_env
        p = _pipeline(spec, frame, "dt", max_depth=10)
        query = dataset_query(spec, p, tables, partition_col="rcount")
        raven = _session(
            spark, catalog, tables,
            OptimizerConfig(enable_data_induced=True, runtime="none"),
        )
        plan = raven.optimize(query, partition_sample=frame)
        assert plan.partition_models is not None
        assert len(plan.partition_models.models) == 6
        opt = _collect(raven.execute_plan(plan))
        base = _collect(
            _session(spark, catalog, tables, OptimizerConfig.no_opt()).execute(
                dataset_query(spec, p, tables)
            )
        )
        np.testing.assert_array_equal(
            opt["prediction"].to_numpy(), base["prediction"].to_numpy()
        )


def test_udf_workers_check_zip_stat(spark):
    # every worker process that runs the UDF has the stat check installed
    # before it scores its first batch
    mark = spark_exec.ZIP_STAT_CHECKED

    def scorer(batch):
        import zipimport

        installed = getattr(zipimport.zipimporter.invalidate_caches, mark, False)
        return np.full(batch.num_rows, int(installed)), np.zeros(batch.num_rows)

    df = spark.range(0, 20000, numPartitions=4)
    got = spark_exec.with_predict_udf(df, scorer).toPandas()
    assert len(got) == 20000 and (got["prediction"] == 1).all()


class TestPartitionedPlans:
    @pytest.mark.parametrize("runtime", ["none", "dnn"])
    def test_null_and_unseen_keys_keep_labels(self, spark, runtime):
        # every 15th key is NULL and partition p4 has no model: those rows
        # are scored by the unpartitioned pipeline, the rest by their
        # partition's model, and no label moves
        from repro.core.optimizer import RavenOptimizer
        from repro.runtime import onnx_rt
        from repro.runtime.dnn_rt import compile_to_dnn
        from tests.partitioned import partitioned_case

        t, query, sample = partitioned_case()
        plan = RavenOptimizer(
            OptimizerConfig(enable_data_induced=True, runtime=runtime)
        ).optimize(query, partition_sample=sample)
        assert plan.runtime == runtime and len(plan.partition_models.models) == 4
        catalog = spark_exec.register_pandas_tables(spark, {"t": t})
        got = spark_exec.execute_plan(catalog, plan).toPandas()["prediction"]
        if runtime == "dnn":
            want, _ = compile_to_dnn(query.pipeline).predict(t)
        else:
            want, _ = onnx_rt.run(query.pipeline, t)
        np.testing.assert_array_equal(got.to_numpy(), want)


def _literal_frame():
    """Categories that hold a backslash or a quote, whose labels depend on
    them, next to a numeric column."""
    rng = np.random.default_rng(5)
    cats = np.array(["a\\tb", "a\\nb", "x\\", "O'Brien", "plain"])
    t = pd.DataFrame({"c": rng.choice(cats, 1000), "x": rng.normal(size=1000)})
    t["label"] = (t.c.isin(["a\\tb", "x\\"]) ^ (t.x > 1.5)).astype(int)
    return t


class TestStringLiterals:
    """Spark reads a backslash in a SQL string literal as an escape; the
    generated SQL must still name the category the runtime sees."""

    def test_mltosql_backslash_categories_match_runtime(self, spark):
        from pyspark.sql import functions as F

        from repro.core.ml2sql import compile_to_sql
        from repro.runtime import onnx_rt

        t = _literal_frame()
        p = fit_pipeline(t, ["x"], ["c"], "label", "dt", max_depth=4)
        got = (
            spark.createDataFrame(t.assign(_i=np.arange(len(t))))
            .select("_i", F.expr(compile_to_sql(p).label_sql).alias("prediction"))
            .toPandas()
            .sort_values("_i")
        )
        np.testing.assert_array_equal(got["prediction"], onnx_rt.run(p, t)[0])

    @pytest.mark.parametrize("pred", [
        Predicate("c", "=", "a\\tb"), Predicate("c", "=", "x\\"),
        Predicate("c", "=", "O'Brien"), Predicate("c", ">=", "b"),
        Predicate("x", ">", 0.1 + 0.2),
    ])
    def test_where_keeps_the_rows_pandas_keeps(self, spark, pred):
        t = _literal_frame()
        t.loc[:10, "x"] = 0.1 + 0.2  # rows sitting on the constant
        ops = {"=": "__eq__", ">=": "__ge__", ">": "__gt__"}
        want = int(getattr(t[pred.col], ops[pred.op])(pred.value).sum())
        catalog = spark_exec.register_pandas_tables(spark, {"t": t})
        query = PredictionQuery(fact="t", pipeline=None, where=[pred])
        assert spark_exec.build_input_df(catalog, query, ["c", "x"]).count() == want


class TestJoinDatasets:
    @pytest.mark.parametrize("name", ["expedia", "flights"])
    def test_optimized_equals_noopt_with_joins(self, spark, name):
        spec = ds.get_spec(name)
        tables = ds.generate(name, 1500, seed=41)
        catalog = spark_exec.register_pandas_tables(spark, tables)
        frame = ds.joined_frame(name, 1500, seed=41)
        p = _pipeline(spec, frame, "dt", max_depth=4)
        query = dataset_query(spec, p, tables)
        base = _collect(
            _session(spark, catalog, tables, OptimizerConfig.no_opt()).execute(query)
        )
        raven = _session(
            spark, catalog, tables, OptimizerConfig(runtime="auto", strategy=None)
        )
        plan = raven.optimize(query)
        opt = _collect(raven.execute_plan(plan))
        np.testing.assert_array_equal(
            base["prediction"].to_numpy(), opt["prediction"].to_numpy()
        )

    def test_join_elimination_on_shallow_model(self, spark):
        """A depth-2 tree cannot touch most dim columns -> at least one
        3-way-join dim must be eliminated (§4.1: "avoid those joins")."""
        spec = ds.get_spec("expedia")
        tables = ds.generate("expedia", 1500, seed=43)
        catalog = spark_exec.register_pandas_tables(spark, tables)
        frame = ds.joined_frame("expedia", 1500, seed=43)
        p = _pipeline(spec, frame, "dt", max_depth=2)
        query = dataset_query(spec, p, tables)
        raven = _session(spark, catalog, tables, OptimizerConfig(runtime="none"))
        plan = raven.optimize(query)
        assert len(plan.eliminated_joins) >= 1
        # result still correct
        out = _collect(raven.execute_plan(plan))
        base = _collect(
            _session(spark, catalog, tables, OptimizerConfig.no_opt()).execute(query)
        )
        np.testing.assert_array_equal(
            out["prediction"].to_numpy(), base["prediction"].to_numpy()
        )


class TestParser:
    @pytest.fixture(scope="class")
    def env(self, spark):
        spec = ds.get_spec("hospital")
        tables = ds.generate("hospital", 1000, seed=51)
        catalog = spark_exec.register_pandas_tables(spark, tables)
        frame = ds.joined_frame("hospital", 1000, seed=51)
        sess = _session(spark, catalog, tables, OptimizerConfig(runtime="none"))
        sess.register_model("hosp_dt", _pipeline(spec, frame, "dt", max_depth=6))
        return sess, frame

    def test_basic_select_predict(self, env):
        sess, frame = env
        out = sess.sql(
            "SELECT PREDICT(hosp_dt, *) AS prediction FROM hospital"
        ).toPandas()
        assert len(out) == len(frame)
        assert {"prediction", "score"} <= set(out.columns)

    def test_where_clause(self, env):
        sess, frame = env
        out = sess.sql(
            "SELECT PREDICT(hosp_dt, *) AS prediction FROM hospital "
            "WHERE asthma = '1' AND bmi > 25.0"
        ).toPandas()
        expected = frame[(frame.asthma == "1") & (frame.bmi > 25.0)]
        assert len(out) == len(expected)

    def test_output_predicate(self, env):
        sess, frame = env
        out = sess.sql(
            "SELECT PREDICT(hosp_dt, *) AS prediction FROM hospital "
            "WHERE prediction = 1"
        ).toPandas()
        assert (out["prediction"] == 1).all()

    def test_join_syntax(self, spark):
        spec = ds.get_spec("expedia")
        tables = ds.generate("expedia", 800, seed=52)
        catalog = spark_exec.register_pandas_tables(spark, tables)
        frame = ds.joined_frame("expedia", 800, seed=52)
        sess = _session(spark, catalog, tables, OptimizerConfig(runtime="none"))
        sess.register_model("exp_dt", _pipeline(spec, frame, "dt", max_depth=3))
        out = sess.sql(
            "SELECT PREDICT(exp_dt, *) AS prediction FROM searches "
            "JOIN hotels ON searches.prop_id = hotels.prop_id "
            "JOIN destinations ON searches.dest_id = destinations.dest_id"
        ).toPandas()
        assert len(out) == len(frame)

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT PREDICT(nope, *) FROM hospital",
            "SELECT PREDICT(hosp_dt, *) FROM missing_table",
            "SELECT PREDICT(hosp_dt, *) FROM hospital WHERE bmi LIKE 3",
            "SELECT PREDICT(hosp_dt, *) FROM hospital trailing junk",
        ],
    )
    def test_rejects_invalid(self, env, bad):
        sess, _ = env
        with pytest.raises(ValueError):
            sess.sql(bad)
