"""Split-boundary inputs shared by the rewrite and compiler tests."""
import numpy as np
import pandas as pd

from repro.ir.slots import model_input_slots
from repro.ir.tree import LEAF


def split_boundaries(p):
    """(column, value) for every split of ``p``'s trees on a scaled numeric
    input: the raw value the scaler maps onto the threshold,
    ``x0 = (thr - b) / a``, and the values up to 2 float64 ulps either side.
    The runtime rounds ``(x - offset) * scale`` and casts it to float32, so
    rows there can fall on either side of the split."""
    slots = model_input_slots(p)
    out = []
    for t in p.model_node.attrs["trees"]:
        for node in np.flatnonzero(t.left != LEAF):
            s = slots[int(t.feature[node])]
            if s.kind == "num":
                x0 = (float(t.threshold[node]) - s.b) / s.a
                out += [(s.source, x0 + k * np.spacing(x0)) for k in range(-2, 3)]
    return out


def boundary_rows(frame, p, n_rows=100):
    """The first ``n_rows`` rows of ``frame`` once per split boundary value,
    with that value written into the split's column."""
    head = frame.iloc[:n_rows]
    return pd.concat(
        [head.assign(**{col: v}) for col, v in split_boundaries(p)], ignore_index=True
    )
