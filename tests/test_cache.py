"""Tests for the artifact cache (:mod:`repro.cache`): an entry that cannot
be loaded is rebuilt and overwritten with one warning, never raised."""
import logging
import os
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.cache import FORMAT_VERSION, cached
from repro.core.corpus import build_corpus
from repro.ml.pipeline import fit_pipeline, fit_pipeline_cached


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
    return tmp_path


def _entry(cache, kind):
    (name,) = [n for n in os.listdir(cache) if n.startswith(f"{kind}-")]
    assert f"-v{FORMAT_VERSION}-" in name
    return cache / name


def _warnings(caplog):
    return [r for r in caplog.records
            if r.name == "repro.cache" and r.levelno == logging.WARNING]


@pytest.fixture
def frame():
    rng = np.random.default_rng(4)
    pdf = pd.DataFrame({"a": rng.standard_normal(300), "c": rng.choice(["u", "v"], 300)})
    pdf["label"] = ((pdf.a > 0) ^ (pdf.c == "u")).astype(int)
    return pdf


HP = {"num_cols": ["a"], "cat_cols": ["c"], "label_col": "label",
      "model_kind": "gb", "max_depth": 2, "n_estimators": 3}


def test_corrupt_pipeline_entry_is_rebuilt(cache, frame, caplog):
    fit_pipeline_cached(frame, "f", **HP)
    path = _entry(cache, "pipeline")
    path.write_bytes(b"not a pickle")
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        rebuilt = fit_pipeline_cached(frame, "f", **HP)
        assert len(_warnings(caplog)) == 1
        fresh = pickle.dumps(fit_pipeline(frame, **HP))
        assert pickle.dumps(rebuilt) == fresh
        assert pickle.dumps(fit_pipeline_cached(frame, "f", **HP)) == fresh  # overwritten
        assert len(_warnings(caplog)) == 1


def test_truncated_corpus_entry_is_rebuilt(cache, caplog):
    kw = {"n_rows_train": 300, "n_rows_eval": 200, "seed": 2}
    build_corpus(2, **kw)
    path = _entry(cache, "corpus")
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        rebuilt = build_corpus(2, **kw)
        assert len(_warnings(caplog)) == 1
        reread = build_corpus(2, **kw)  # overwritten: read back as written
        assert len(_warnings(caplog)) == 1
    assert [e.runtimes for e in reread] == [e.runtimes for e in rebuilt]
    os.remove(path)
    fresh = build_corpus(2, **kw)
    assert len(rebuilt) == len(fresh) == 2
    for a, b in zip(rebuilt, fresh):
        np.testing.assert_array_equal(a.features, b.features)


def _save_dir(value, path):
    os.mkdir(path)
    with open(os.path.join(path, "value"), "w") as f:
        f.write(value)


def _load_dir(path):
    with open(os.path.join(path, "value")) as f:
        return f.read()


def test_corrupt_directory_entry_is_replaced(cache, caplog):
    # the shape of a pyspark.ml model entry: a directory, not a pickle
    assert cached("d", 1, lambda: "one", load=_load_dir, save=_save_dir) == "one"
    path = _entry(cache, "d")
    os.remove(path / "value")
    (path / "partial").write_text("")
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert cached("d", 1, lambda: "two", load=_load_dir, save=_save_dir) == "two"
        assert len(_warnings(caplog)) == 1
    assert _load_dir(path) == "two"
    assert os.listdir(cache) == [path.name]  # no temporary left behind


def test_unwritable_cache_returns_the_built_value(tmp_path, monkeypatch, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_MODEL_CACHE", str(blocker / "cache"))
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert cached("x", 1, lambda: 42) == 42
        assert len(_warnings(caplog)) == 1


def test_failed_write_leaves_no_entry(cache, caplog):
    def save_then_fail(value, path):
        _save_dir(value, path)
        raise OSError("disk full")

    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert cached("d", 1, lambda: "one", load=_load_dir, save=save_then_fail) == "one"
        assert len(_warnings(caplog)) == 1
    assert os.listdir(cache) == []


def test_key_and_location_read_per_call(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "a"))
    assert cached("x", 1, lambda: "a1") == "a1"
    assert cached("x", 1, lambda: "other") == "a1"
    assert cached("x", 2, lambda: "a2") == "a2"
    monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "b"))
    assert cached("x", 1, lambda: "b1") == "b1"
