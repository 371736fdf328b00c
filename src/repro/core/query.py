"""Prediction-query specification — the relational half of the unified IR.

A :class:`PredictionQuery` is the symbolic form of the paper's Fig 2 ①:
a star join over a fact table, WHERE predicates, and a PREDICT invocation
of a trained pipeline, optionally filtered on the prediction output. The
Raven optimizer rewrites this object together with the ML sub-graph;
:mod:`repro.runtime.spark_exec` lowers it onto DataFrames.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.predicate_pruning import Predicate
from repro.ir.graph import Pipeline


@dataclass(frozen=True)
class Join:
    """Fact-FK -> dim-PK equi join. ``fk_integrity=True`` declares that
    every fact key matches exactly one dim row (guaranteed by our
    generators), which licenses join elimination when no dim column is
    needed — the paper's "avoid those joins altogether" (§4.1)."""

    dim_table: str
    fact_key: str
    dim_key: str
    fk_integrity: bool = True


@dataclass
class PredictionQuery:
    """SELECT PREDICT(model, *) FROM fact JOIN ... WHERE ... [HAVING pred]"""

    fact: str
    pipeline: Pipeline
    joins: list[Join] = field(default_factory=list)
    where: list[Predicate] = field(default_factory=list)
    #: table -> columns it owns (for projection/join pruning decisions)
    table_cols: dict[str, list[str]] = field(default_factory=dict)
    #: predicate on the model output, e.g. ("prediction", 1)
    output_filter: tuple[str, int] | None = None
    #: hospital-style partitioning column (enables §4.2 per-partition models)
    partition_col: str | None = None

    def with_pipeline(self, p: Pipeline) -> "PredictionQuery":
        return replace(self, pipeline=p)

    def predicate_cols(self) -> set[str]:
        return {p.col for p in self.where}
