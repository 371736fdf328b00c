"""Tests for the PREDICT-query parser's output predicate: a conjunct on the
prediction alias is the query's class-label filter, or an error."""
import pandas as pd
import pytest

from repro.core.parser import parse_prediction_query
from repro.ml.pipeline import fit_pipeline


@pytest.fixture(scope="module")
def models():
    t = pd.DataFrame({"x": [0.0, 1.0, 2.0, 3.0], "label": [0, 0, 1, 1]})
    return {"m": fit_pipeline(t, ["x"], [], "label", "dt", max_depth=1)}


def _output_filter(models, where):
    sql = f"SELECT PREDICT(m, *) AS risk FROM t WHERE {where}"
    return parse_prediction_query(sql, models, {"t": ["x"]}).output_filter


@pytest.mark.parametrize("where, label", [
    ("risk = 1", 1),
    ("risk = 1.0", 1),
    ("risk = 0 AND x > 1", 0),
    ("risk = 1 AND risk = 1", 1),
])
def test_class_label_filter(models, where, label):
    assert _output_filter(models, where) == ("prediction", label)


@pytest.mark.parametrize("where", [
    "risk = 0.5",  # no class label
    "risk = '1'",
    "risk = 1 AND risk = 0",  # no row is both
    "risk = 1 AND x > 1 AND risk = 0",
    "risk > 0",
])
def test_bad_output_predicate_raises(models, where):
    with pytest.raises(ValueError):
        _output_filter(models, where)
