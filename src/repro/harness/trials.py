"""Spark Monte-Carlo trial fan-out.

The paper reports the mean of 100 independent sampling repetitions per
setting; repetitions are embarrassingly parallel. The (label, run, seed)
trials are dealt round-robin into ``defaultParallelism`` RDD partitions, so
each algorithm's runs spread evenly over them; each partition is one Spark
task that runs its trials with the sequential kernel. Stream and ground
truth are shipped via a Spark broadcast, which each task loads once.

The partitions are explicit because a grouped ``applyInPandas`` ran every
trial in one task: adaptive query execution coalesces the small shuffle
behind the ``groupBy`` into a single partition. One trial per task is slower
too, as every task re-loads the broadcast. Metric aggregation is Spark SQL
(cross-checked against the DuckDB oracle in tests).
"""
from __future__ import annotations

import logging

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.runner import are, mare, run_trial
from ..exact.incremental import truth_trajectory
from .factory import make_sampler

__all__ = ["run_trials", "aggregate", "trial_frame"]

log = logging.getLogger(__name__)

_RESULT_SCHEMA = (
    "label string, run int, are double, mare double, time_s double, final double"
)


def run_trials(
    spark: SparkSession,
    stream,
    pattern: str,
    M: int,
    algos: list[tuple[str, str, dict | None]],
    *,
    n_runs: int,
    ckpt_every: int,
    mare_floor: float = 0.0,
    wr_ratio: float = 0.1,
    seed0: int = 0,
    truth=None,
) -> DataFrame:
    """Run ``n_runs`` repetitions of each (label, algo, policy) over
    ``stream``; returns a Spark DataFrame of per-trial metrics.

    ``algos`` entries are (display label, factory name, policy dict or
    None). Ground truth is computed once on the driver (or passed in) and
    broadcast with the stream.
    """
    if truth is None:
        _, truth = truth_trajectory(stream, pattern, ckpt_every)
    sc = spark.sparkContext
    b = sc.broadcast(
        {
            "stream": stream,
            "truth": truth,
            "pattern": pattern,
            "M": M,
            "ckpt_every": ckpt_every,
            "mare_floor": mare_floor,
            "wr_ratio": wr_ratio,
            "policies": {label: pol for label, _, pol in algos},
            "names": {label: name for label, name, _ in algos},
        }
    )

    tasks = [
        (label, r, seed0 + r) for label, _, _ in algos for r in range(n_runs)
    ]
    n_parts = min(len(tasks), sc.defaultParallelism)
    parts = [tasks[i::n_parts] for i in range(n_parts)]
    log.info(
        "run_trials: %d trials in %d partitions (master %s, defaultParallelism %d)",
        len(tasks), n_parts, sc.master, sc.defaultParallelism,
    )

    def run_part(it):
        cfg = b.value  # one broadcast load per task
        truth = cfg["truth"]
        for part in it:
            for label, run, seed in part:
                sampler = make_sampler(
                    cfg["names"][label],
                    cfg["M"],
                    cfg["pattern"],
                    seed,
                    policy=cfg["policies"][label],
                    wr_ratio=cfg["wr_ratio"],
                )
                res = run_trial(cfg["stream"], sampler, cfg["ckpt_every"])
                yield (
                    label,
                    run,
                    are(res["final"], float(truth[-1])),
                    mare(res["est"], truth, cfg["mare_floor"]),
                    res["time_s"],
                    res["final"],
                )

    rdd = sc.parallelize(parts, n_parts).mapPartitions(run_part)
    return spark.createDataFrame(rdd, _RESULT_SCHEMA)


def aggregate(results: DataFrame) -> pd.DataFrame:
    """Mean metrics per algorithm label (the numbers the paper tabulates)."""
    out = (
        results.groupBy("label")
        .agg(
            F.mean("are").alias("are"),
            F.mean("mare").alias("mare"),
            F.mean("time_s").alias("time_s"),
            F.count("run").alias("n_runs"),
        )
        .toPandas()
    )
    return out.sort_values("label").reset_index(drop=True)


def trial_frame(
    spark: SparkSession,
    stream,
    pattern: str,
    M: int,
    algos: list[tuple[str, str, dict | None]],
    **kw,
) -> pd.DataFrame:
    """run_trials + aggregate in one call."""
    return aggregate(run_trials(spark, stream, pattern, M, algos, **kw))
