"""Run one experiment harness: ``python -m repro.experiments <name>``.

``--list`` prints the names. A harness whose ``run`` takes ``spark`` gets
the local SparkSession of :func:`repro.spark_session.spark_session`; the
others start no JVM.
"""
from __future__ import annotations

import argparse
import inspect

from repro.experiments import (
    fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1, table2,
)
from repro.spark_session import spark_session

EXPERIMENTS = {
    m.__name__.rpartition(".")[2]: m.run
    for m in (table1, table2, fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12)
}
EXPERIMENTS["fig10-predicate"] = fig10.run_predicate_experiment


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
        fn(spark_session(args.name))
    else:
        fn()


if __name__ == "__main__":
    main()
