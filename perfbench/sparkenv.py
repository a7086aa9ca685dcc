"""Local Spark session for the benchmark, configured like the test suite's.

The confs match ``conftest.py``: Spark UI off, driver host 127.0.0.1,
broadcast joins off, Arrow on, 64 shuffle partitions. ``src`` goes on the
Python workers' ``PYTHONPATH`` (without it every ``applyInPandas`` trial
fails with ``ModuleNotFoundError: repro``). Every scratch location Spark, the
JVM and Python use is pointed inside ``work`` so the benchmark writes only
inside its checkout.
"""
from __future__ import annotations

import os
import shlex
import sys
from pathlib import Path

__all__ = ["start_spark", "stop_spark", "spark_info"]

DRIVER_MEMORY = "2g"


def start_spark(src: Path, work: Path):
    n = len(os.sched_getaffinity(0))
    tmp = work / "tmp"
    local = work / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # -XX:-UsePerfData: the JVM otherwise writes /tmp/hsperfdata_<user>
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", f"local[{n}]",
            "--driver-memory", DRIVER_MEMORY,
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", f"spark.local.dir={local}",
            "--conf", f"spark.sql.warehouse.dir={work / 'warehouse'}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, shut the JVM down and wait for it to exit (its
    Python worker daemons exit with it)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        proc.wait(timeout=60)


def spark_info(spark) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "spark": pyspark.__version__,
        "python": sys.version.split()[0],
        "driver_memory": DRIVER_MEMORY,
    }
