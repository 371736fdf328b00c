"""Table 2 — columns pruned by the data-induced optimization.

Paper values (Hospital, decision trees, avg #pruned columns):

    depth 10:  none=4,  partition on num_issues=8,  partition on rcount=11
    depth 15:  none=0,  partition on num_issues=6,  partition on rcount=5
    depth 20:  none=0,  partition on num_issues=6,  partition on rcount=5

"none" applies global min/max statistics; the partitioned schemes compile
one optimized model per partition and average pruned-column counts.
"""
from __future__ import annotations

from repro.core.data_induced import (
    apply_data_induced_pruning,
    collect_stats_pandas,
    compile_partitioned_models,
)
from repro.core.projection_pushdown import apply_projection_pushdown
from repro.data import datasets as ds
from repro.experiments.common import dataset_pipeline

PAPER = {10: (4, 8, 11), 15: (0, 6, 5), 20: (0, 6, 5)}

DEPTHS = (10, 15, 20)
SCHEMES = ("none", "num_issues", "rcount")

TITLE = "Table 2: avg # columns pruned by data-induced optimization (Hospital)"
COLUMNS = {
    "tree depth": "depth", "no partitioning": "none", "on num_issues": "num_issues",
    "on rcount": "rcount", "paper (none/num_issues/rcount)": "paper",
}


def run(n_rows: int = 60_000, seed: int = 0) -> list[dict]:
    spec = ds.get_spec("hospital")
    frame = ds.joined_frame("hospital", n_rows, seed)
    rows = []
    for depth in DEPTHS:
        p = dataset_pipeline("hospital", "dt", max_depth=depth)
        # Baseline pushdown prunes columns a shallow model never reads;
        # Table 2 counts the *additional* columns the data-induced rule
        # removes, so measure relative to that baseline.
        base = apply_projection_pushdown(p)
        baseline_removed = set(base.removed_cols)
        measured = {}
        for scheme in SCHEMES:
            if scheme == "none":
                stats = collect_stats_pandas(frame, spec.num_cols, spec.cat_cols)
                pruned = apply_data_induced_pruning(p, stats)
                pushed = apply_projection_pushdown(pruned.pipeline)
                measured[scheme] = len(set(pushed.removed_cols) - baseline_removed)
            else:
                pm = compile_partitioned_models(p, frame, scheme)
                extra = [
                    len(set(cols) - baseline_removed)
                    for cols in pm.pruned_cols.values()
                ]
                measured[scheme] = round(sum(extra) / len(extra), 1)
        rows.append({"depth": depth, **measured, "paper": PAPER[depth]})
    return rows


def check(rows: list[dict]) -> None:
    by_depth = {r["depth"]: r for r in rows}
    # paper shape: partitioning prunes more columns than global stats, and
    # depth-10 models lose more columns than depth-20 ones under rcount
    for depth, r in by_depth.items():
        assert max(r["num_issues"], r["rcount"]) >= r["none"]
    assert by_depth[10]["rcount"] >= by_depth[20]["rcount"]
