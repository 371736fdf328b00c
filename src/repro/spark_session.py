"""The one local SparkSession factory, for the tests and the experiment
harnesses.

``spark.driver.memory`` is read when the JVM launches, not from SparkConf,
so :func:`spark_session` puts it in ``PYSPARK_SUBMIT_ARGS`` (unless that is
set already) before the process's first session starts the JVM.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

#: per-session configs: the vectorized UDF's 10k-row Arrow batches (paper
#: §6), and no broadcast joins, so that joins take the shuffle path at the
#: small scales run here.
CONFIGS = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.execution.arrow.maxRecordsPerBatch": "10000",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}

_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def driver_memory() -> tuple[str, str]:
    """(driver heap, its source): ``$SPARK_DRIVER_MEM``, else 75% of the
    cgroup v2/v1 memory limit, else 48g. A limit that is unreadable (a
    gVisor sandbox may not pass the host's through) or unbounded (``max``,
    or cgroup v1's ~9.2e18 sentinel) counts as absent, so the JVM is never
    handed an impossible heap."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env"
    for p in _CGROUP_LIMITS:
        try:
            with open(p) as f:
                raw = f.read().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
    return "48g", "fallback"


def spark_session(app: str) -> SparkSession:
    """The process's local SparkSession, with :data:`CONFIGS` set; master
    from ``$SPARK_MASTER`` (default ``local[*]``), heap from
    :func:`driver_memory`."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()[0]} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    return SparkSession.builder.appName(app).config(map=CONFIGS).getOrCreate()
