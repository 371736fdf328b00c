"""Tests for ``python -m repro.experiments``, the one entry point of the
experiment harnesses. No test here starts Spark."""
import importlib
import os
import pkgutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro
import repro.experiments
from repro import spark_session
from repro.experiments import __main__ as entry


def _run(*args):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_list_names_every_harness():
    harnesses = {
        m.name for m in pkgutil.iter_modules(repro.experiments.__path__)
        if hasattr(importlib.import_module(f"repro.experiments.{m.name}"), "run")
    }
    assert "fig6" in harnesses
    out = _run("--list")
    assert out.returncode == 0, out.stderr
    names = out.stdout.split()
    assert harnesses <= set(names)
    assert "fig10-predicate" in names


def test_unknown_name_exits_2():
    out = _run("fig99")
    assert out.returncode == 2
    assert "invalid choice" in out.stderr


def test_harness_session_gets_the_factory_driver_memory(monkeypatch):
    class Builder:  # hands back what the JVM would be launched with
        def appName(self, name):
            return self

        def config(self, **configs):
            return self

        def getOrCreate(self):
            return os.environ["PYSPARK_SUBMIT_ARGS"]

    monkeypatch.setattr(spark_session, "SparkSession", SimpleNamespace(builder=Builder()))
    monkeypatch.delenv("PYSPARK_SUBMIT_ARGS", raising=False)
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    launched = []
    monkeypatch.setitem(entry.EXPERIMENTS, "fake", lambda spark: launched.append(spark))
    entry.main(["fake"])
    (args,) = launched
    assert "--driver-memory 3g " in args and args.endswith(" pyspark-shell")


@pytest.mark.parametrize("limit, expected", [
    ("8589934592", ("6g", "cgroup")),  # 75% of 8 GiB
    ("max", ("48g", "fallback")),
    ("9223372036854771712", ("48g", "fallback")),  # cgroup v1 "unlimited"
])
def test_driver_memory_from_the_cgroup_limit(tmp_path, monkeypatch, limit, expected):
    path = tmp_path / "memory.max"
    path.write_text(limit + "\n")
    monkeypatch.setattr(spark_session, "_CGROUP_LIMITS", (str(path),))
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    mem, src = spark_session.driver_memory()
    assert (mem, src.partition(":")[0]) == expected
    monkeypatch.setenv("SPARK_DRIVER_MEM", "5g")
    assert spark_session.driver_memory() == ("5g", "env")
