"""Experiment harnesses — one module per evaluation table/figure.

Each module exposes ``run(spark=..., scale=...) -> list[dict]`` returning
the rows it prints; ``python -m repro.experiments <name>`` runs one
(:mod:`repro.experiments.__main__`), ``benchmarks/`` wraps them for
pytest-benchmark, and EXPERIMENTS.md records paper-vs-measured values.
"""
