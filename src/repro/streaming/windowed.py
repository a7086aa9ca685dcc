"""Structured Streaming ingestion of the fully dynamic edge stream.

The paper's algorithm is a stateful single-pass operator; Structured
Streaming is the natural Spark host for it. Edge events are written as
ordered micro-batch files (one file = one tumbling window of ``window_size``
events), read back with a file-source ``readStream`` processing one file per
trigger, and each micro-batch is fed — in event order — into the stateful
WSD/baseline sampler held by the driver via ``foreachBatch``. One output row
per window: (window id, last event index, estimate).

A test asserts the streaming path is *bit-identical* to the batch kernel for
the same seed: the operator sees the same events in the same order, so the
reservoir evolution matches exactly.

A window holds a few hundred events, so the kernel costs well under a
millisecond per trigger and Spark's fixed cost per micro-batch sets the
running time. Two choices keep that cost down:

* Each micro-batch is sorted by ``seq`` on the driver, in pandas, not with
  ``orderBy``. Spark disables adaptive query execution in streaming plans, so
  a Spark sort costs every window a range-partition sampling job plus a
  shuffle over all ``spark.sql.shuffle.partitions``.
* The query writes its checkpoint through Hadoop's ``FileSystem`` API
  (``FileSystemBasedCheckpointFileManager``) instead of the default
  ``FileContext`` one. Without the native Hadoop library, ``FileContext`` on
  the local filesystem spawns a ``readlink`` process for every file-status
  call, i.e. for every offset, commit, source-log and ``.crc`` file of every
  trigger. The session conf is set for the query's lifetime only and then
  restored: the file source opens its metadata log lazily on the stream
  thread, so the conf must hold until the query has ended.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import LongType, StructField, StructType

__all__ = ["write_event_files", "run_streaming_estimate"]

log = logging.getLogger(__name__)

_CKPT_MANAGER_CONF = "spark.sql.streaming.checkpointFileManagerClass"
_CKPT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileSystemBasedCheckpointFileManager"
)
# StreamingQueryProgress.durationMs phases summed into the per-call log line
_PHASES = (
    "addBatch", "walCommit", "commitOffsets", "latestOffset",
    "getBatch", "queryPlanning", "triggerExecution",
)

_EVENT_SCHEMA = StructType(
    [
        StructField("seq", LongType(), False),
        StructField("op", LongType(), False),
        StructField("u", LongType(), False),
        StructField("v", LongType(), False),
    ]
)


def write_event_files(stream: np.ndarray, out_dir: str | Path, window_size: int) -> list[Path]:
    """Split a stream into tumbling windows of ``window_size`` events and
    write each as one JSON-lines file with increasing names and mtimes (the
    file-streaming source orders its input by modification time)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    n = len(stream)
    base = time.time() - n  # strictly increasing mtimes, all in the past
    for w, start in enumerate(range(0, n, window_size)):
        chunk = stream[start : start + window_size]
        path = out / f"window-{w:06d}.json"
        with open(path, "w") as f:
            for i in range(len(chunk)):
                f.write(
                    json.dumps(
                        {
                            "seq": int(start + i),
                            "op": int(chunk["op"][i]),
                            "u": int(chunk["u"][i]),
                            "v": int(chunk["v"][i]),
                        }
                    )
                    + "\n"
                )
        os.utime(path, (base + w, base + w))
        paths.append(path)
    return paths


def run_streaming_estimate(
    spark: SparkSession,
    stream: np.ndarray,
    sampler,
    *,
    window_size: int = 1000,
    work_dir: str | Path | None = None,
) -> pd.DataFrame:
    """Drive ``sampler`` through ``stream`` via Structured Streaming.

    Returns one row per tumbling window: (window, n_events, last_seq,
    estimate). ``sampler`` is any object with ``process(op, u, v)`` and
    ``estimate`` — the WSD kernel or a baseline. The event files and the
    checkpoint go under ``work_dir``, which is left in place; without one
    they go to a temporary directory that is removed before returning.

    A micro-batch whose ``seq`` values do not continue the stream exactly (a
    dropped or repeated event, or windows out of order) fails the query, and
    a stream that ends short of its last event raises ``RuntimeError``.
    """
    with (
        contextlib.nullcontext(work_dir)
        if work_dir
        else tempfile.TemporaryDirectory(prefix="repro-stream-")
    ) as tmp:
        in_dir = Path(tmp) / "events"
        ckpt_dir = Path(tmp) / "ckpt"
        write_event_files(stream, in_dir, window_size)

        results: list[dict] = []
        expected_next = {"seq": 0}  # in-order delivery guard

        def feed(batch_df, batch_id: int) -> None:
            pdf = batch_df.toPandas().sort_values("seq", ignore_index=True)
            if pdf.empty:
                return
            start = expected_next["seq"]
            seq = pdf["seq"].to_numpy()
            bad = np.flatnonzero(seq != np.arange(start, start + len(seq)))
            if len(bad):
                raise RuntimeError(
                    f"micro-batch {batch_id} breaks event order: expected seq "
                    f"{start + bad[0]}, got {seq[bad[0]]}"
                )
            for op, u, v in zip(pdf["op"], pdf["u"], pdf["v"]):
                sampler.process(int(op), int(u), int(v))
            expected_next["seq"] = start + len(seq)
            results.append(
                {
                    "window": int(batch_id),
                    "n_events": len(pdf),
                    "last_seq": int(seq[-1]),
                    "estimate": float(sampler.estimate),
                }
            )

        reader = (
            spark.readStream.schema(_EVENT_SCHEMA)
            .option("maxFilesPerTrigger", 1)
            .json(str(in_dir))
        )
        prev_manager = spark.conf.get(_CKPT_MANAGER_CONF, None)
        spark.conf.set(_CKPT_MANAGER_CONF, _CKPT_MANAGER)
        try:
            query = (
                reader.writeStream.foreachBatch(feed)
                .option("checkpointLocation", str(ckpt_dir))
                .trigger(availableNow=True)
                .start()
            )
            query.awaitTermination()
        finally:
            if prev_manager is None:
                spark.conf.unset(_CKPT_MANAGER_CONF)
            else:
                spark.conf.set(_CKPT_MANAGER_CONF, prev_manager)
        if expected_next["seq"] != len(stream):
            raise RuntimeError(
                f"stream ended early: expected seq {len(stream) - 1} last, "
                f"got {expected_next['seq'] - 1}"
            )

        progress = query.recentProgress
        ms = {k: sum(p.durationMs.get(k, 0) for p in progress) for k in _PHASES}
        log.info(
            "run_streaming_estimate: %d windows, %d events; durationMs summed over "
            "the last %d triggers (at most spark.sql.streaming."
            "numRecentProgressUpdates, default 100): %s",
            len(results), len(stream), len(progress),
            " ".join(f"{k}={v}" for k, v in ms.items()),
        )
        return pd.DataFrame(results)
