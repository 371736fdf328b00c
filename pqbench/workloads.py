"""The benchmark's closed-loop workloads.

Each one generates its tables from the seed, loads them into its engine,
loads the deployed models, and runs PREDICT query texts through the
system's public entry points:

- ``spark-adhoc``: Hospital on Spark, lr/dt/gb x runtimes ``sql``, ``none``
  and ``dnn``, data-induced pruning on. Every query text is new (fresh WHERE
  conjuncts), so parsing, every rule, MLtoSQL and Catalyst planning sit on
  the critical path, next to the vectorized-UDF path. Some rows and half of
  the numeric constants sit on the deployed trees' split thresholds, so a
  rewrite that is unsound at a split boundary shows in the oracle check.
- ``duckdb-star``: Expedia 3-way star join on ``SqlServerSim`` (DuckDB),
  lr/dt/gb x runtimes ``sql`` and ``none``. The same six texts repeat.

A workload's ``tracer`` is a no-op until the traced phase swaps in a real
one; the probes (``probe``) run only then, after the query has returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
import pandas as pd

import repro.core.parser as parser
from repro.core.data_induced import collect_stats_pandas
from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.session import RavenSession
from repro.data import datasets as ds
from repro.experiments import common
from repro.ir.slots import model_input_slots
from repro.runtime import onnx_rt, spark_exec
from repro.sqlserver.engine import SqlServerSim, data_select_sql

from layers import MODELS
from spans import NullTracer

#: §6: Arrow / UDF / record batches of 10k rows
BATCH_ROWS = 10_000
SPARK_SHUFFLE_PARTITIONS = 8
SPARK_DRIVER_MEMORY = "2g"


@dataclass
class Query:
    text: str
    model: str
    runtime: str
    #: (column, op, value) conjuncts, also rendered into ``text``
    where: tuple = ()
    output_filter: int | None = None
    qid: int = -1

    @property
    def cls(self) -> str:
        return f"{self.model}_{self.runtime}"


def query_text(spec: ds.DatasetSpec, model: str, where=(), output_filter=None) -> str:
    sql = f"SELECT PREDICT({model}, *) AS prediction FROM {spec.fact}"
    for j in spec.joins:
        sql += (f" JOIN {j.dim_table} ON {spec.fact}.{j.fact_key} = "
                f"{j.dim_table}.{j.dim_key}")
    conds = [
        f"{c} {op} " + (f"'{v}'" if isinstance(v, str)
                        else np.format_float_positional(v, trim="-"))
        for c, op, v in where
    ]
    if output_filter is not None:
        conds.append(f"prediction = {output_filter}")
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    return sql


def slot_matrix(slots, frame) -> np.ndarray:
    """The model's input vector for each row of ``frame``, from slot
    provenance (float32, as the tree runtime compares it)."""
    cols, codes = [], {}
    for s in slots:
        if s.kind == "num":
            cols.append(s.a * frame[s.source].to_numpy(np.float64) + s.b)
        elif s.kind == "onehot":
            if s.source not in codes:
                codes[s.source] = pd.factorize(frame[s.source])
            code, uniques = codes[s.source]
            hit = code == (uniques.get_loc(s.category) if s.category in uniques else -2)
            cols.append(s.a * hit + s.b)
        else:
            cols.append(np.full(len(frame), s.const))
    return np.column_stack(cols).astype(np.float32)


def split_boundaries(pipeline, frame, rng, ulps: int):
    """(column, value, row) for each split of a tree model on a numeric
    input: the raw value that the input's scaler maps onto the split
    threshold, moved by up to ``ulps`` float64 ulps, and a row of ``frame``
    that reaches the split."""
    slots = model_input_slots(pipeline)
    X = slot_matrix(slots, frame)
    out = []
    for tree in pipeline.model_node.attrs["trees"]:
        stack = [(0, np.ones(len(frame), dtype=bool))]
        while stack:
            node, reach = stack.pop()
            if tree.is_leaf(node):
                continue
            f, thr = int(tree.feature[node]), float(tree.threshold[node])
            left = X[:, f] <= thr
            stack += [(int(tree.left[node]), reach & left),
                      (int(tree.right[node]), reach & ~left)]
            s = slots[f]
            if s.kind == "num" and reach.any():
                x0 = (thr - s.b) / s.a
                v = x0 + int(rng.integers(-ulps, ulps + 1)) * np.spacing(x0)
                out.append((s.source, float(v), int(rng.choice(np.flatnonzero(reach)))))
    return out


def identity_batches(batches):
    """The Arrow hop alone: batches go to a Python worker and back unchanged."""
    yield from batches


def spark_conf(nproc: int, tmp_dir: str) -> dict[str, str]:
    """Set before the JVM starts (``SparkSession.builder`` passes these to
    spark-submit), so nothing depends on the caller's environment."""
    return {
        "spark.master": f"local[{nproc}]",
        "spark.app.name": "pqbench",
        "spark.driver.memory": SPARK_DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": tmp_dir,
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.execution.arrow.maxRecordsPerBatch": str(BATCH_ROWS),
        "spark.sql.shuffle.partitions": str(SPARK_SHUFFLE_PARTITIONS),
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }


class Workload:
    name = ""
    engine = ""
    dataset = ""
    n_rows = 0
    runtimes: tuple = ()
    #: seconds of untimed whole rounds before the timed loop (one at least)
    warmup_s = 0.0

    def __init__(self, nproc: int, tmp_dir: str):
        self.nproc = nproc
        self.tmp_dir = tmp_dir
        self.tracer = NullTracer()
        self.catalog = {}
        self.eng = None
        self.joined = None

    @property
    def spec(self) -> ds.DatasetSpec:
        return ds.get_spec(self.dataset)

    def setup(self, seed: int) -> dict[str, float]:
        """One full set-up after engine start; returns its step times."""
        self.seed = seed
        t = {}
        t0 = perf_counter()
        self.models = {m: common.dataset_pipeline(self.dataset, m) for m in MODELS}
        t["model_load_s"] = perf_counter() - t0
        t0 = perf_counter()
        tables = ds.generate(self.dataset, self.n_rows, seed=seed)
        tables[self.spec.fact] = self.place_boundary_rows(tables[self.spec.fact])
        t["generate_s"] = perf_counter() - t0
        t0 = perf_counter()
        self.load(tables)
        t["load_s"] = perf_counter() - t0
        t0 = perf_counter()
        self.stats = self.collect_stats(tables)
        t["stats_s"] = perf_counter() - t0
        self.tables = tables
        self.table_cols = {
            n: [c for c in pdf.columns if c != ds.LABEL] for n, pdf in tables.items()
        }
        self.joined = None
        self.after_setup()
        return t

    def collect_stats(self, tables):
        return None

    def place_boundary_rows(self, fact):
        """The generated fact table, edited by workloads that need rows the
        generator does not make; left as generated here."""
        return fact

    def oracle_frame(self):
        """Fact joined with its dimensions, generated again from the seed
        and built once, outside set-up."""
        if self.joined is None:
            frame = ds.joined_frame(self.dataset, self.n_rows, self.seed)
            self.joined = self.place_boundary_rows(frame)
        return self.joined


class SparkAdhoc(Workload):
    name = "spark-adhoc"
    engine = "spark"
    dataset = "hospital"
    n_rows = 20_000
    runtimes = ("sql", "none", "dnn")
    #: share of queries that also filter on ``prediction = 1``
    OUTPUT_FILTER_SHARE = 0.3
    #: share of numeric conjuncts whose constant is a split boundary value
    BOUNDARY_SHARE = 0.5
    #: boundary values lie within this many float64 ulps of the value that
    #: maps exactly onto a threshold: the runtime's float32 cast of the
    #: scaled value can land either side of the split there
    BOUNDARY_ULPS = 2
    #: the JVM compiles hot code through the first few dozen queries of a
    #: session: on a 4-vCPU host, after a 15 s warm-up the next 15 s still
    #: ran 15-20% slower than the 15 s after them
    warmup_s = 20.0

    def start_engine(self) -> None:
        from pyspark.sql import SparkSession

        builder = SparkSession.builder
        for k, v in spark_conf(self.nproc, self.tmp_dir).items():
            builder = builder.config(k, v)
        self.spark = builder.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")

    def engine_config(self) -> dict[str, str]:
        conf = self.spark.sparkContext.getConf()
        return {k: conf.get(k) for k in spark_conf(self.nproc, self.tmp_dir)}

    def load(self, tables) -> None:
        for df in self.catalog.values():
            df.unpersist()
        catalog = {}
        for name, pdf in tables.items():
            df = self.spark.createDataFrame(pdf).cache()
            df.count()
            catalog[name] = df
        self.catalog = catalog

    def after_setup(self) -> None:
        self.sessions = {
            key: RavenSession(self.spark, self.catalog, self.table_cols,
                              config=cfg, models=dict(self.models))
            for key, cfg in self.configs().items()
        }

    def run(self, q: Query, noopt: bool = False):
        """Entry point to noop sink; returns the query's DataFrame."""
        sess = self.sessions["noopt" if noopt else q.runtime]
        df = sess.sql(q.text, stats=self.stats)
        with self.tracer.span("spark_exec.sink"):
            spark_exec.sink(df)
        return df

    def system_counts(self, q: Query, df) -> dict[int, int]:
        rows = df.groupBy("prediction").count().collect()
        return {int(r["prediction"]): int(r["count"]) for r in rows}

    def probe(self, q: Query, df) -> None:
        span = self.tracer.span
        plan = self.tracer.last["optimizer.optimize"]
        with span("spark_exec.plan"):
            df._jdf.queryExecution().executedPlan()
        inp = spark_exec.build_input_df(self.catalog, plan.query, list(plan.input_cols))
        with span("spark_exec.input"):
            spark_exec.sink(inp)
        if plan.runtime == "sql":
            return
        with span("spark_exec.hop"):
            spark_exec.sink(inp.mapInPandas(identity_batches, schema=inp.schema))
        batch = self.oracle_frame().iloc[:BATCH_ROWS]
        if plan.runtime == "dnn":
            dnn = self.tracer.last["dnn_rt.compile"]
            with span("dnn_rt.batch"):
                dnn.predict(batch)
        else:
            with span("onnx_rt.batch"):
                onnx_rt.run(plan.pipeline, batch)

    def close(self) -> None:
        """Stop Spark and wait for its JVM (and with it the Python workers)."""
        from pyspark import SparkContext

        spark = getattr(self, "spark", None)
        if spark is None:
            return
        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        try:
            # fails when a signal cut a py4j call short; the JVM goes anyway
            spark.stop()
        finally:
            if gateway is not None:
                gateway.shutdown()
            if proc is not None:
                proc.stdin.close()  # the gateway JVM exits on EOF
                proc.wait(timeout=60)

    def configs(self) -> dict[str, OptimizerConfig]:
        configs = {rt: OptimizerConfig(runtime=rt, enable_data_induced=True)
                   for rt in self.runtimes}
        configs["noopt"] = OptimizerConfig.no_opt()
        return configs

    def place_boundary_rows(self, fact):
        """Copies of rows that reach a dt or gb split on a numeric input,
        with that input set to the split's boundary value, written over
        other rows (about 250 rows, 1% of the table). Drawn from the seed,
        so the oracle's frame gets the same rows."""
        assert not self.spec.joins, "boundary rows are placed on a single table"
        rng = np.random.default_rng(self.seed)
        picks = [b for m in ("dt", "gb")
                 for b in split_boundaries(self.models[m], fact, rng, self.BOUNDARY_ULPS)]
        targets = rng.choice(len(fact), len(picks), replace=False)
        order = np.arange(len(fact))
        order[targets] = [row for _, _, row in picks]
        out = fact.iloc[order].reset_index(drop=True)
        for (col, v, _), row in zip(picks, targets):
            out.iat[row, out.columns.get_loc(col)] = v
        self.boundary = {}
        for col, v, _ in picks:
            self.boundary.setdefault(col, []).append(v)
        return out

    def collect_stats(self, tables):
        """Table-wide min/max and category sets for data-induced pruning."""
        spec = self.spec
        return collect_stats_pandas(tables[spec.fact], spec.num_cols, spec.cat_cols)

    def rounds(self, rng):
        """Every text is new: 1-3 conjuncts on distinct columns, constants
        taken from random rows (so rows sit exactly on each bound) or, for
        half the numeric ones, from the split boundary values, and
        sometimes ``prediction = 1``."""
        spec = self.spec
        fact = self.tables[spec.fact]
        seen = set()
        while True:
            queries = []
            for rt, m in itertools.product(self.runtimes, MODELS):
                while True:
                    where = []
                    for c in rng.sample(spec.input_cols, rng.randint(1, 3)):
                        v = fact[c].iat[rng.randrange(len(fact))]
                        if c in spec.num_cols:
                            if c in self.boundary and rng.random() < self.BOUNDARY_SHARE:
                                v = rng.choice(self.boundary[c])
                            where.append((c, rng.choice(("<", "<=", ">", ">=")), float(v)))
                        else:
                            where.append((c, "=", str(v)))
                    out = 1 if rng.random() < self.OUTPUT_FILTER_SHARE else None
                    text = query_text(spec, m, where, out)
                    if text not in seen:
                        break
                seen.add(text)
                queries.append(Query(text, m, rt, tuple(where), out))
            yield queries


class DuckStar(Workload):
    name = "duckdb-star"
    engine = "duckdb"
    dataset = "expedia"
    n_rows = 60_000
    runtimes = ("sql", "none")

    def configs(self) -> dict[str, OptimizerConfig]:
        configs = {rt: OptimizerConfig(runtime=rt) for rt in self.runtimes}
        configs["noopt"] = OptimizerConfig.no_opt()
        return configs

    def rounds(self, rng):
        """Each round runs the same six texts (every model x runtime)."""
        fixed = [Query(query_text(self.spec, m), m, rt)
                 for rt in self.runtimes for m in MODELS]
        while True:
            yield [replace(q) for q in fixed]

    def start_engine(self) -> None:
        """DuckDB is in-process: its start is the import, counted already;
        each set-up opens a fresh connection (counted as load)."""

    def engine_config(self) -> dict[str, str]:
        rows = self.eng.con.execute(
            "SELECT name, value FROM duckdb_settings() "
            "WHERE name IN ('threads', 'temp_directory', 'memory_limit')"
        ).fetchall()
        return dict(rows)

    def load(self, tables) -> None:
        if self.eng is not None:
            self.eng.close()
        self.eng = SqlServerSim(tables, threads=self.nproc)
        self.eng.con.execute(f"SET temp_directory = '{self.tmp_dir}'")

    def after_setup(self) -> None:
        self.optimizers = {key: RavenOptimizer(cfg) for key, cfg in self.configs().items()}

    def run(self, q: Query, noopt: bool = False):
        query = parser.parse_prediction_query(q.text, self.models, self.table_cols)
        plan = self.optimizers["noopt" if noopt else q.runtime].optimize(query)
        with self.tracer.span("sqlserver.run"):
            if plan.runtime == "sql":
                return self.eng.run_raven_sql(plan)
            return self.eng.run_raven_predict(plan)

    def system_counts(self, q: Query, res) -> dict[int, int]:
        return {int(k): int(n) for k, n in zip(res.agg["prediction"], res.agg["n"])}

    def probe(self, q: Query, res) -> None:
        span = self.tracer.span
        plan = self.tracer.last["optimizer.optimize"]
        inner = data_select_sql(plan.query, list(plan.input_cols))
        if plan.runtime == "sql":
            with span("sqlserver.plan"):
                self.eng.con.execute(
                    f"SELECT {plan.sql.label_sql} AS prediction, COUNT(*) AS n "
                    f"FROM ({inner}) GROUP BY 1 ORDER BY 1 LIMIT 0"
                ).fetchall()
        with span("sqlserver.input"):
            for _ in self.eng.con.execute(inner).fetch_record_batch(BATCH_ROWS):
                pass
        if plan.runtime == "none":
            with span("onnx_rt.batch"):
                onnx_rt.run(plan.pipeline, self.oracle_frame().iloc[:BATCH_ROWS])

    def close(self) -> None:
        if self.eng is not None:
            self.eng.close()


WORKLOADS = {w.name: w for w in (SparkAdhoc, DuckStar)}


def trace_targets():
    """Library functions the traced phase wraps, with the counts each adds."""
    import repro.core.optimizer as opt
    import repro.core.session as session
    import repro.runtime.dnn_rt as dnn_rt
    from repro.core.predicate_pruning import tree_ensemble_size

    return [
        (parser, "parse_prediction_query", "parser.parse", None),
        (session, "parse_prediction_query", "parser.parse", None),
        (opt.RavenOptimizer, "optimize", "optimizer.optimize",
         lambda a, plan: {"joins_removed": len(plan.eliminated_joins)}),
        (opt, "apply_predicate_pruning", "predicate_pruning",
         lambda a, r: {"removed": r.pruned_nodes}),
        (opt, "apply_output_predicate_pruning", "output_pruning",
         lambda a, p: {"removed": tree_ensemble_size(a[0]) - tree_ensemble_size(p)}),
        (opt, "apply_data_induced_pruning", "data_induced",
         lambda a, r: {"removed": r.pruned_nodes}),
        (opt, "apply_projection_pushdown", "projection_pushdown",
         lambda a, r: {"removed": len(r.removed_cols)}),
        (opt, "compile_to_sql", "ml2sql.compile",
         lambda a, s: {"bytes": len(s.label_sql.encode()) + len(s.score_sql.encode())}),
        (spark_exec, "execute_plan", "spark_exec.execute_plan", None),
        (dnn_rt, "compile_to_dnn", "dnn_rt.compile", None),
    ]
