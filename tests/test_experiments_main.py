"""Tests for ``python -m repro.experiments``, the one entry point of the
experiment harnesses. No test here starts Spark."""
import importlib
import os
import pkgutil
import subprocess
import sys

import repro
import repro.experiments


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
