"""Table 1 — dataset statistics.

Paper values (verbatim):

    Credit Card:  1 table,  28 inputs (28/0),  28 features (28/0)
    Hospital:     1 table,  24 inputs (9/15),  59 features (9/50)
    Expedia:      3 tables, 28 inputs (8/20),  3965 features (8/3957)
    Flights:      4 tables, 37 inputs (4/33),  6475 features (4/6471)

We *verify* the counts empirically: generate each dataset, fit the
featurizers, and count encoded features.
"""
from __future__ import annotations

from repro.data import datasets as ds
from repro.ml.pipeline import fit_pipeline

PAPER = {
    "creditcard": (1, 28, 28, 0, 28, 0),
    "hospital": (1, 24, 9, 15, 9, 50),
    "expedia": (3, 28, 8, 20, 8, 3957),
    "flights": (4, 37, 4, 33, 4, 6471),
}


TITLE = "Table 1: dataset statistics (measured | paper)"
COLUMNS = {
    "dataset": "dataset", "#tables": "tables", "#inputs": "inputs",
    "num": "inputs_num", "cat": "inputs_cat", "#features num": "features_num",
    "#features cat": "features_cat", "paper": "paper",
}


def run(n_rows: int = 5000, seed: int = 0) -> list[dict]:
    rows = []
    for name in ds.DATASETS:
        spec = ds.get_spec(name)
        frame = ds.joined_frame(name, n_rows, seed)
        p = fit_pipeline(
            frame, spec.num_cols, spec.cat_cols, ds.LABEL, "dt", max_depth=2,
            cat_domains=spec.cat_domains or None,
        )
        enc_cat = p.n_model_features() - len(spec.num_cols)
        rows.append(
            {
                "dataset": name,
                "tables": spec.n_tables,
                "inputs": len(spec.input_cols),
                "inputs_num": len(spec.num_cols),
                "inputs_cat": len(spec.cat_cols),
                "features_num": len(spec.num_cols),
                "features_cat": enc_cat,
                "paper": PAPER[name],
            }
        )
    return rows


def check(rows: list[dict]) -> None:
    assert len(rows) == 4
    for r in rows:
        paper = r["paper"]
        assert (r["tables"], r["inputs"]) == (paper[0], paper[1])
        assert (r["features_num"], r["features_cat"]) == (paper[4], paper[5])
