"""Data-induced optimizations (§4.2).

Column statistics — min/max for numeric columns, the set of present
categories for categorical columns — induce predicates that feed the same
pruning routine as the WHERE-clause rule
(:func:`repro.core.predicate_pruning.prune_model`, which bounds each slot
with the shared featurizer): a tree split on ``age <= 60`` collapses when
the data provably lies on one side. The statistics come from a pandas
sample on the driver (:func:`collect_stats_pandas`).

The partitioned variant compiles **one optimized model per partition**: for
each value of a partition column, per-partition statistics induce stronger
predicates, after which model-projection pushdown removes per-partition
unused columns (Table 2 counts exactly those).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.predicate_pruning import PruneResult, prune_model
from repro.core.projection_pushdown import apply_projection_pushdown
from repro.ir.graph import Pipeline


@dataclass
class ColumnStats:
    """min/max per numeric column (max +inf when the column holds a NULL),
    present-category sets per cat column."""

    num_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    cat_domains: dict[str, set] = field(default_factory=dict)

    def as_predicates(self) -> dict[str, tuple]:
        out: dict[str, tuple] = {
            c: ("range", lo, hi) for c, (lo, hi) in self.num_ranges.items()
        }
        for c, dom in self.cat_domains.items():
            out[c] = ("in", {str(v) for v in dom})
        return out


def collect_stats_pandas(
    pdf: pd.DataFrame, num_cols: list[str], cat_cols: list[str]
) -> ColumnStats:
    stats = ColumnStats()
    for c in num_cols:
        col = pdf[c]
        if col.notna().any():  # an all-NULL column gives no bound
            # a NULL takes the right branch of every split, as +inf does
            hi = np.inf if col.isna().any() else float(col.max())
            stats.num_ranges[c] = (float(col.min()), hi)
    for c in cat_cols:
        stats.cat_domains[c] = {str(v) for v in pdf[c].unique()}
    return stats


def apply_data_induced_pruning(p: Pipeline, stats: ColumnStats) -> PruneResult:
    """Prune the model against statistics-induced predicates.

    Unlike WHERE-predicate pruning, inputs are never bound to constants
    (a min==max column would qualify but is rare); only intervals flow.
    """
    p = p.clone()
    inputs = set(p.input_cols)
    preds = {c: v for c, v in stats.as_predicates().items() if c in inputs}
    if not preds:
        return PruneResult(p)
    return PruneResult(p, {}, prune_model(p, preds))


@dataclass
class PartitionedModels:
    """One optimized pipeline per partition value, plus pruning metrics."""

    partition_col: str
    models: dict[str, Pipeline]
    pruned_cols: dict[str, list[str]]

    @property
    def avg_pruned_cols(self) -> float:
        if not self.pruned_cols:
            return 0.0
        return float(np.mean([len(v) for v in self.pruned_cols.values()]))


def compile_partitioned_models(
    p: Pipeline,
    pdf: pd.DataFrame,
    partition_col: str,
    num_cols: list[str],
    cat_cols: list[str],
) -> PartitionedModels:
    """§4.2: per-partition stats -> per-partition pruned+densified model.

    ``pdf`` is (a sample of) the scored data used to derive partition
    statistics; in a warehouse these come from partition metadata. The
    partition column itself also induces an equality-like domain: within
    partition v, ``partition_col in {v}``.
    """
    models: dict[str, Pipeline] = {}
    pruned: dict[str, list[str]] = {}
    base_inputs = set(p.input_cols)
    for v, part in pdf.groupby(partition_col, sort=True):
        stats = collect_stats_pandas(
            part,
            [c for c in num_cols if c in base_inputs],
            [c for c in cat_cols if c in base_inputs],
        )
        pr = apply_data_induced_pruning(p, stats)
        pushed = apply_projection_pushdown(pr.pipeline)
        models[str(v)] = pushed.pipeline
        pruned[str(v)] = pushed.removed_cols
    return PartitionedModels(partition_col, models, pruned)
