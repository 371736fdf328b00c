import sys

import pytest
from pyspark.sql import SparkSession

from repro.spark_session import driver_memory, spark_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, from
    :func:`repro.spark_session.spark_session`."""
    s = spark_session("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Running).
    mem, src = driver_memory()
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
