"""Run one experiment harness: ``python -m repro.experiments <name>``.

Prints the harness's rows as a table, then runs its ``check``: a failed
assert is printed and the exit status is 1. ``--list`` prints the names. A
harness whose ``run`` takes ``spark`` gets the local SparkSession of
:func:`repro.spark_session.spark_session`; the others start no JVM.
"""
from __future__ import annotations

import argparse
import inspect
import sys
import traceback
from typing import Callable, NamedTuple

from repro.bench_util import print_table
from repro.experiments import (
    fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1, table2,
)
from repro.spark_session import spark_session


class Harness(NamedTuple):
    run: Callable[..., list[dict]]
    check: Callable[[list[dict]], None]
    title: str
    columns: dict[str, str]


EXPERIMENTS = {
    m.__name__.rpartition(".")[2]: Harness(m.run, m.check, m.TITLE, m.COLUMNS)
    for m in (table1, table2, fig4, fig6, fig7, fig8, fig9, fig10, fig11, fig12)
}
EXPERIMENTS["fig10-predicate"] = Harness(
    fig10.run_predicate_experiment, fig10.check_predicate,
    fig10.PREDICATE_TITLE, fig10.PREDICATE_COLUMNS,
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
    h = EXPERIMENTS[args.name]
    if "spark" in inspect.signature(h.run).parameters:
        rows = h.run(spark_session(args.name))
    else:
        rows = h.run()
    print_table(h.title, h.columns, rows)
    try:
        h.check(rows)
    except AssertionError:
        sys.stdout.flush()
        traceback.print_exc()
        sys.exit(1)


if __name__ == "__main__":
    main()
