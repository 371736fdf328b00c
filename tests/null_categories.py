"""A frame whose labels hang on NULL categorical values, for the tests that
every path renders a NULL categorical as ``'None'``."""
import numpy as np
import pandas as pd

from repro.ml.pipeline import fit_pipeline


def null_category_frame(null=np.nan, n=3000, seed=0):
    """``x`` numeric and ``c`` in {a, b, c}, 20% of it ``null``; the label
    is 1 where ``c`` is NULL or ``x > 1``."""
    rng = np.random.default_rng(seed)
    c = rng.choice(["a", "b", "c"], n).astype(object)
    c[rng.random(n) < 0.2] = null
    pdf = pd.DataFrame({"x": rng.standard_normal(n), "c": c})
    pdf["label"] = (pdf.c.isna() | (pdf.x > 1.0)).astype(int)
    return pdf


def null_category_pipeline(pdf):
    return fit_pipeline(pdf, ["x"], ["c"], "label", "dt", max_depth=4)
