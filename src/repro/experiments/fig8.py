"""Fig 8 — prediction queries on "SQL Server" (DuckDB substrate) + MADlib.

Paper: 4 datasets x {LR, DT, GB} at 100M rows on SQL Server (DOP1 and
DOP16), MADlib on PostgreSQL single-threaded (RF substituted for GB; the
1,600-column limit excludes Expedia/Flights). Headlines: Raven 1.4–330x
over un-optimized SQL Server (largest wins where MLtoSQL + column pruning
fire for LR/DT); single-threaded Raven beats MADlib 3.9–108x.
"""
from __future__ import annotations

import numpy as np

from repro.bench_util import print_table, timeit_trimmed
from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.experiments import common
from repro.sqlserver.engine import SqlServerSim
from repro.sqlserver.madlib import madlib_supported, run_madlib

ROWS = {
    "creditcard": 200_000,
    "hospital": 200_000,
    "expedia": 60_000,
    "flights": 30_000,
}
MODELS = ("lr", "dt", "gb")


def run(scale: float = 1.0, runs: int = 3, datasets=ds.DATASETS) -> list[dict]:
    strategy = common.classification_strategy()
    rows = []
    for name in datasets:
        n = int(ROWS[name] * scale)
        tables = ds.generate(name, n, seed=0)
        spec = ds.get_spec(name)
        for kind in MODELS:
            p = common.dataset_pipeline(name, kind)
            query = dataset_query(spec, p, tables)
            plan = RavenOptimizer(
                OptimizerConfig(runtime="auto", strategy=strategy)
            ).optimize(query)
            rec = {"dataset": name, "model": kind, "n_rows": n,
                   "raven_choice": plan.runtime}
            for dop in (1, 16):
                eng = SqlServerSim(tables, threads=dop)
                try:
                    rec[f"sqlserver_dop{dop}"] = timeit_trimmed(
                        lambda: eng.run_predict_statement(query, p), runs=runs
                    )
                    if plan.runtime == "sql":
                        rec[f"raven_dop{dop}"] = timeit_trimmed(
                            lambda: eng.run_raven_sql(plan), runs=runs
                        )
                    else:
                        rec[f"raven_dop{dop}"] = timeit_trimmed(
                            lambda: eng.run_raven_predict(plan), runs=runs
                        )
                finally:
                    eng.close()
            # MADlib: single-threaded, RF substituted for GB, skips wide
            mkind = "rf" if kind == "gb" else kind
            mp = common.dataset_pipeline(name, mkind)
            if madlib_supported(mp):
                mq = dataset_query(spec, mp, tables)
                rec["madlib"] = timeit_trimmed(lambda: run_madlib(tables, mq, mp), runs=runs)
                rec["madlib_model"] = mkind
            else:
                rec["madlib"] = np.nan
                rec["madlib_model"] = "skipped (>1600 cols)"
            rec["speedup_dop16"] = rec["sqlserver_dop16"] / rec["raven_dop16"]
            rec["speedup_vs_madlib_dop1"] = (
                rec["madlib"] / rec["raven_dop1"] if np.isfinite(rec["madlib"]) else np.nan
            )
            rows.append(rec)
    print_table(
        "Fig 8: 'SQL Server' (DuckDB) + MADlib-style baseline (seconds; paper: "
        "Raven 1.4-330x over SQL Server, 3.9-108x over MADlib single-threaded)",
        ["dataset", "model", "rows", "SQLSrv DOP1", "SQLSrv DOP16",
         "Raven DOP1", "Raven DOP16", "choice", "MADlib", "x DOP16", "x MADlib@1"],
        [
            [
                r["dataset"], r["model"], r["n_rows"],
                f"{r['sqlserver_dop1']:.2f}", f"{r['sqlserver_dop16']:.2f}",
                f"{r['raven_dop1']:.2f}", f"{r['raven_dop16']:.2f}",
                r["raven_choice"],
                "skip" if not np.isfinite(r["madlib"]) else f"{r['madlib']:.2f}",
                f"{r['speedup_dop16']:.1f}",
                "-" if not np.isfinite(r["speedup_vs_madlib_dop1"])
                else f"{r['speedup_vs_madlib_dop1']:.1f}",
            ]
            for r in rows
        ],
    )
    return rows
