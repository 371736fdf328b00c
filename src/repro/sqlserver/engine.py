"""Single-node columnar engine — the "SQL Server" of this reproduction.

DuckDB plays SQL Server's role from §7.1.2: a single-node vectorized
columnstore engine with a configurable degree of parallelism
(``SET threads`` ~ DOP). Three execution paths:

- :meth:`SqlServerSim.run_predict_statement` — the *un-optimized* baseline:
  the relational part runs as SQL, and its 10k-row Arrow record batches
  go straight into the ML runtime (our ONNX-Runtime substitute, which
  reads Arrow; no pandas conversion), mirroring SQL Server's PREDICT that
  invokes ONNX Runtime per batch.
- :meth:`SqlServerSim.run_raven_predict` — Raven's plan that keeps the ML
  runtime (or MLtoDNN's tensor runtime for a ``"dnn"`` plan), scored by
  the plan's own batch scorer
  (:meth:`~repro.core.optimizer.PhysicalPlan.scorer`), per partition when
  the plan holds partition models (§4.2). The scan is the column-pruned
  one of :func:`encoded_scan`, which moves the one-hot lookup into the
  engine (the FeatureExtractor pushed through OneHotEncoder into the
  scan, §4.1). Each table of the star is a derived table holding its
  model columns, join keys and WHERE conjuncts, with every one-hot
  VARCHAR column replaced by its 1-based position among the model's
  categories (0: none of them; NULL is looked up as ``'None'``, the
  runtime's rule), cast to the narrowest integer type. So only small
  integer codes cross the join and the Arrow boundary; the runtime reads
  each code column as a dictionary array over the category list. A
  column whose table is unknown, or a non-VARCHAR one-hot column, sends
  the query down the baseline's string scan, and so does a partitioned
  plan, whose dispatch reads the partition key's values, not codes.
- :meth:`SqlServerSim.run_raven_sql` — Raven's output: the whole optimized
  prediction query (including the MLtoSQL-translated model) as one SQL
  statement the engine plans end-to-end.

WHERE constants are written by :func:`repro.core.ml2sql._lit`: strings
with quotes doubled, numbers in E-notation, which DuckDB parses as the
exact DOUBLE (a plain decimal literal parses as DECIMAL and can land one
ulp off after the cast, moving rows that sit on the constant).

Per the paper's protocol, prediction queries on this engine end in an
aggregate over the predictions (``GROUP BY prediction``), so timings don't
measure result shipping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from repro.core.ml2sql import _lit
from repro.core.optimizer import PhysicalPlan
from repro.core.predicate_pruning import Predicate
from repro.core.query import PredictionQuery
from repro.ir.graph import Pipeline
from repro.runtime import onnx_rt

PREDICT_BATCH_ROWS = 10_000

#: what the engine raises for a statement it cannot run
EngineError = duckdb.Error


def _pred_sql(p: Predicate) -> str:
    return f"{p.col} {p.op} {_lit(p.value)}"


def _select_list(cols: list[str]) -> str:
    # a model whose inputs were all projected away still needs its row count
    return ", ".join(cols) or "1 AS _one"


def data_select_sql(query: PredictionQuery, cols: list[str]) -> str:
    """Relational part of the prediction query as a SQL string."""
    sql = f"SELECT {_select_list(cols)} FROM {query.fact}"
    for j in query.joins:
        sql += (
            f" JOIN {j.dim_table} ON {query.fact}.{j.fact_key} = "
            f"{j.dim_table}.{j.dim_key}"
        )
    if query.where:
        sql += " WHERE " + " AND ".join(_pred_sql(p) for p in query.where)
    return sql


@dataclass
class EncodedScan:
    """A data select whose one-hot columns arrive as integer codes: code
    ``i`` stands for ``dictionaries[col][i]``, and code 0 for a value
    outside the categories."""

    sql: str
    dictionaries: dict[str, pa.Array]


def _onehot_categories(p: Pipeline) -> dict[str, list[str]]:
    """Input column -> the categories its one-hot encoders look up."""
    cats: dict[str, list[str]] = {}
    for nid in p.topo_order():
        node = p.nodes[nid]
        if node.op == "onehot" and p.nodes[node.inputs[0]].op == "input":
            seen = cats.setdefault(p.nodes[node.inputs[0]].attrs["name"], [])
            seen.extend(c for c in node.attrs["categories"] if c not in seen)
    return cats


def _code_type(n_codes: int) -> str:
    return "TINYINT" if n_codes <= 128 else "SMALLINT" if n_codes <= 32768 else "INTEGER"


def encoded_scan(
    query: PredictionQuery, pipeline: Pipeline, types: dict[str, dict[str, str]]
) -> EncodedScan | None:
    """The data select of :func:`data_select_sql` with each one-hot column
    looked up in its owning table, before the join; ``None`` when a column's
    owner is unknown or a one-hot column is not VARCHAR (``types``: table
    -> column -> DuckDB type)."""
    tables = [query.fact] + [j.dim_table for j in query.joins]

    def owner(col: str) -> str | None:
        owners = [t for t in tables if col in query.table_cols.get(t, ())]
        return owners[0] if len(owners) == 1 else None

    cats = _onehot_categories(pipeline)
    select: dict[str, list[str]] = {t: [] for t in tables}
    where: dict[str, list[str]] = {t: [] for t in tables}
    outer, dictionaries = [], {}
    for c in pipeline.input_cols:
        t = owner(c)
        if t is None:
            return None
        outer.append(f"{t}.{c}")
        if c not in cats:
            select[t].append(c)
            continue
        if types.get(t, {}).get(c) != "VARCHAR":
            return None
        # longer than every category, so it is none of them
        absent = "~" * (1 + max(map(len, cats[c]), default=0))
        dictionaries[c] = pa.array([absent] + cats[c], pa.string())
        position = (
            f"list_position([{', '.join(map(_lit, cats[c]))}], COALESCE({c}, 'None'))"
        )
        select[t].append(
            f"CAST(COALESCE({position}, 0) AS {_code_type(len(dictionaries[c]))}) AS {c}"
        )
    for p in query.where:
        t = owner(p.col)
        if t is None:
            return None
        where[t].append(f"{t}.{_pred_sql(p)}")
    for j in query.joins:
        for t, key in ((query.fact, j.fact_key), (j.dim_table, j.dim_key)):
            if key in dictionaries:
                return None
            if key not in select[t]:
                select[t].append(key)

    def derived(t: str) -> str:
        cond = " WHERE " + " AND ".join(where[t]) if where[t] else ""
        return f"(SELECT {_select_list(select[t])} FROM {t}{cond}) AS {t}"

    sql = f"SELECT {_select_list(outer)} FROM {derived(query.fact)}"
    for j in query.joins:
        sql += (
            f" JOIN {derived(j.dim_table)} ON {query.fact}.{j.fact_key} = "
            f"{j.dim_table}.{j.dim_key}"
        )
    return EncodedScan(sql, dictionaries)


@dataclass
class EngineResult:
    agg: pd.DataFrame  # prediction -> count
    seconds: float


class SqlServerSim:
    """DuckDB-backed engine; ``threads`` models the paper's DOP1/DOP16."""

    def __init__(self, tables: dict[str, pd.DataFrame], threads: int = 16):
        self.con = duckdb.connect()
        self.con.execute(f"SET threads TO {threads}")
        for name, pdf in tables.items():
            # materialize into native columnar storage (clustered
            # columnstore stand-in) rather than scanning pandas views
            self.con.register(f"_src_{name}", pdf)
            self.con.execute(f"CREATE TABLE {name} AS SELECT * FROM _src_{name}")
            self.con.unregister(f"_src_{name}")
        #: table -> column -> DuckDB type, for :func:`encoded_scan`
        self.types: dict[str, dict[str, str]] = {}
        for t, c, ty in self.con.execute(
            "SELECT table_name, column_name, data_type FROM duckdb_columns() "
            "WHERE NOT internal"
        ).fetchall():
            self.types.setdefault(t, {})[c] = ty

    def close(self) -> None:
        self.con.close()

    # -- un-optimized PREDICT path --------------------------------------
    def run_predict_statement(
        self, query: PredictionQuery, pipeline: Pipeline
    ) -> EngineResult:
        sql = data_select_sql(query, list(pipeline.input_cols))
        return self._predict(EncodedScan(sql, {}), query, partial(onnx_rt.run, pipeline))

    def _predict(
        self, scan: EncodedScan, query: PredictionQuery, predict
    ) -> EngineResult:
        """Scores ``scan``'s record batches with ``predict(batch) -> (label,
        score)``, each code column wrapped as a dictionary array over its
        categories."""
        t0 = time.perf_counter()
        reader = self.con.execute(scan.sql).fetch_record_batch(PREDICT_BATCH_ROWS)
        counts: dict[int, int] = {}
        for batch in reader:
            for c, d in scan.dictionaries.items():
                i = batch.schema.get_field_index(c)
                codes = pa.DictionaryArray.from_arrays(batch.column(i), d)
                batch = batch.set_column(i, c, codes)
            label, _ = predict(batch)
            if query.output_filter is not None:
                label = label[label == int(query.output_filter[1])]
            for k, c in zip(*np.unique(label, return_counts=True)):
                counts[int(k)] = counts.get(int(k), 0) + int(c)
        seconds = time.perf_counter() - t0
        agg = pd.DataFrame(
            {"prediction": list(counts), "n": list(counts.values())}
        ).sort_values("prediction").reset_index(drop=True)
        return EngineResult(agg, seconds)

    # -- Raven-optimized single-statement path --------------------------
    def run_raven_sql(self, plan: PhysicalPlan) -> EngineResult:
        assert plan.runtime == "sql" and plan.sql is not None
        inner = data_select_sql(plan.query, list(plan.input_cols))
        sql = (
            f"SELECT {plan.sql.label_sql} AS prediction, COUNT(*) AS n "
            f"FROM ({inner}) GROUP BY 1 ORDER BY 1"
        )
        if plan.query.output_filter is not None:
            val = int(plan.query.output_filter[1])
            sql = (
                f"SELECT prediction, n FROM ({sql}) WHERE prediction = {val}"
            )
        t0 = time.perf_counter()
        agg = self.con.execute(sql).fetchdf()
        return EngineResult(agg, time.perf_counter() - t0)

    # -- Raven plan that still needs the ML runtime ---------------------
    def run_raven_predict(self, plan: PhysicalPlan) -> EngineResult:
        """Raven logical opts applied, runtime = ML (column-pruned scan,
        one-hot columns encoded in the engine when :func:`encoded_scan`
        can place them), scored by the plan's scorer."""
        predict = plan.scorer()
        scan = None
        if plan.partition_models is None:
            scan = encoded_scan(plan.query, plan.pipeline, self.types)
        if scan is None:
            scan = EncodedScan(data_select_sql(plan.query, plan.input_cols), {})
        return self._predict(scan, plan.query, predict)
