"""Experiment harnesses — one module per evaluation table/figure.

Each module exposes ``run(...) -> list[dict]``, the rows of its table,
``TITLE`` and ``COLUMNS`` (header -> row key), and ``check(rows)``, which
asserts the paper's shape. ``python -m repro.experiments <name>`` runs one,
prints its table and checks it (:mod:`repro.experiments.__main__`);
EXPERIMENTS.md records paper-vs-measured values.
"""
