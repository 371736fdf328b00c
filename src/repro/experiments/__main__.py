"""Run one experiment harness: ``python -m repro.experiments <name>``.

``--list`` prints the names. A harness whose ``run`` takes ``spark`` gets a
local SparkSession (master from ``$SPARK_MASTER``, default ``local[*]``);
the others start no JVM.
"""
from __future__ import annotations

import argparse
import inspect
import os

from pyspark.sql import SparkSession

from repro.experiments import (
    fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1, table2,
)

EXPERIMENTS = {
    m.__name__.rpartition(".")[2]: m.run
    for m in (table1, table2, fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12)
}
EXPERIMENTS["fig10-predicate"] = fig10.run_predicate_experiment


def _spark_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.execution.arrow.maxRecordsPerBatch", "10000")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one table or figure of the paper's evaluation.",
    )
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("name", nargs="?", choices=list(EXPERIMENTS))
    what.add_argument("--list", action="store_true", help="print the experiment names")
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(EXPERIMENTS))
        return
    fn = EXPERIMENTS[args.name]
    if "spark" in inspect.signature(fn).parameters:
        fn(_spark_session(args.name))
    else:
        fn()


if __name__ == "__main__":
    main()
