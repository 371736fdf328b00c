"""A partitioned prediction query shared by the Spark and DuckDB tests of
§4.2's per-partition models."""
import numpy as np
import pandas as pd

from repro.core.query import PredictionQuery
from repro.ml.pipeline import fit_pipeline


def partitioned_case(n: int = 3000, seed: int = 23):
    """(table, query on ``t`` partitioned by ``k``, partition sample).

    Within partition ``p{i}``, ``x`` lies in ``[10 i, 10 i + 10)``, so each
    partition's model prunes the splits on ``x`` outside that range; the
    model is a depth-8 dt on ``x``, ``y`` and ``k``. Every 15th row of the
    table has a NULL key, and the sample holds neither those rows nor the
    ``p4`` partition, so the plan has no model for either.
    """
    rng = np.random.default_rng(seed)
    i = rng.integers(0, 5, n)
    t = pd.DataFrame({
        "k": np.array([f"p{v}" for v in i], dtype=object),
        "x": i * 10 + rng.uniform(0, 10, n),
        "y": rng.standard_normal(n),
    })
    label = ((t.x % 10 > 5) ^ (t.y > 0)) | (t.k == "p2")
    p = fit_pipeline(
        t.assign(label=label.astype(int)), ["x", "y"], ["k"], "label", "dt", max_depth=8
    )
    t.loc[::15, "k"] = None
    query = PredictionQuery(
        fact="t", pipeline=p, joins=[], where=[],
        table_cols={"t": list(t.columns)}, partition_col="k",
    )
    return t, query, t[t.k.notna() & (t.k != "p4")]
