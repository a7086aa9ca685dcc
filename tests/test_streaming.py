"""Structured Streaming ingestion tests — streaming must be bit-identical to
the batch kernel."""
import json
import logging
import os
import tempfile

import numpy as np
import pytest
from pyspark.errors import StreamingQueryException

from repro.baselines.thinkd import ThinkD
from repro.core.runner import run_trial
from repro.core.weights import heuristic_weight
from repro.core.wsd import WSD
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.streaming import windowed
from repro.streaming.windowed import run_streaming_estimate, write_event_files

CKPT_MANAGER_CONF = "spark.sql.streaming.checkpointFileManagerClass"


@pytest.fixture(scope="module")
def stream():
    edges = generate("cit-HE", scale=0.06)
    return make_stream(edges, "light", beta_l=0.2, seed=2)


def test_write_event_files_partition(tmp_path, stream):
    paths = write_event_files(stream, tmp_path, window_size=100)
    assert len(paths) == int(np.ceil(len(stream) / 100))
    total = 0
    last_seq = -1
    for p in paths:
        with open(p) as f:
            for line in f:
                rec = json.loads(line)
                assert rec["seq"] == last_seq + 1
                last_seq = rec["seq"]
                total += 1
    assert total == len(stream)


def test_mtimes_strictly_increase(tmp_path, stream):
    paths = write_event_files(stream, tmp_path, window_size=200)
    mtimes = [p.stat().st_mtime for p in paths]
    assert all(b > a for a, b in zip(mtimes, mtimes[1:]))


def _assert_windows_match_batch(df, batch) -> None:
    """Every window row equals the batch kernel's checkpoint, bit for bit."""
    assert (df["last_seq"] + 1).tolist() == batch["ckpt_idx"].tolist()
    assert df["estimate"].tolist() == batch["est"].tolist()


def test_streaming_identical_to_batch_wsd(spark, tmp_path, stream):
    ck = max(1, len(stream) // 6)
    batch = run_trial(stream, WSD(50, "triangle", heuristic_weight, seed=9), ck)
    s = WSD(50, "triangle", heuristic_weight, seed=9)
    df = run_streaming_estimate(spark, stream, s, window_size=ck, work_dir=tmp_path)
    _assert_windows_match_batch(df, batch)


def test_streaming_identical_to_batch_baseline(spark, tmp_path, stream):
    w = max(1, len(stream) // 4)
    batch = run_trial(stream, ThinkD(50, "triangle", 4), w)
    df = run_streaming_estimate(
        spark, stream, ThinkD(50, "triangle", 4), window_size=w, work_dir=tmp_path
    )
    _assert_windows_match_batch(df, batch)


def test_streaming_window_rows(spark, tmp_path, stream, caplog):
    s = WSD(40, "triangle", heuristic_weight, seed=1)
    w = max(1, len(stream) // 5)
    caplog.set_level(logging.INFO, logger=windowed.__name__)
    df = run_streaming_estimate(spark, stream, s, window_size=w, work_dir=tmp_path)
    assert len(df) == int(np.ceil(len(stream) / w))
    assert df["n_events"].sum() == len(stream)
    assert (df["window"].diff().dropna() > 0).all()
    assert df["last_seq"].iloc[-1] == len(stream) - 1
    # one INFO line per call, with the per-phase trigger durations
    lines = [r.getMessage() for r in caplog.records if r.name == windowed.__name__]
    assert len(lines) == 1
    assert f"{len(df)} windows, {len(stream)} events" in lines[0]
    for phase in ("addBatch", "walCommit", "commitOffsets", "latestOffset",
                  "getBatch", "queryPlanning", "triggerExecution"):
        assert f"{phase}=" in lines[0]
    assert "numRecentProgressUpdates" in lines[0]


def test_temp_work_dir_is_removed(spark, tmp_path, stream, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    s = WSD(40, "triangle", heuristic_weight, seed=1)
    df = run_streaming_estimate(spark, stream, s, window_size=len(stream) // 3 + 1)
    assert len(df) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "preset", [None, "org.apache.spark.sql.execution.streaming.checkpointing."
                     "FileContextBasedCheckpointFileManager"]
)
def test_checkpoint_manager_conf_is_restored(spark, tmp_path, stream, preset):
    if preset is not None:
        spark.conf.set(CKPT_MANAGER_CONF, preset)
    try:
        s = WSD(40, "triangle", heuristic_weight, seed=1)
        run_streaming_estimate(
            spark, stream, s, window_size=len(stream) // 3 + 1, work_dir=tmp_path
        )
        assert spark.conf.get(CKPT_MANAGER_CONF, None) == preset
    finally:
        spark.conf.unset(CKPT_MANAGER_CONF)


def _corrupt_one_file(monkeypatch, which: str, mutate) -> dict:
    """Make ``write_event_files`` rewrite the lines of its middle or last
    file with ``mutate``; returns a dict that receives that file's first seq."""
    real = windowed.write_event_files
    hit = {}

    def write_then_corrupt(stream, out_dir, window_size):
        paths = real(stream, out_dir, window_size)
        path = paths[len(paths) // 2] if which == "middle" else paths[-1]
        st = path.stat()
        lines = path.read_text().splitlines(keepends=True)
        hit["first"] = json.loads(lines[0])["seq"]
        path.write_text("".join(mutate(lines)))
        os.utime(path, (st.st_atime, st.st_mtime))  # keep the file order
        return paths

    monkeypatch.setattr(windowed, "write_event_files", write_then_corrupt)
    return hit


@pytest.mark.parametrize(
    "mutate, expected, got",
    [
        pytest.param(lambda ls: ls[:3] + ls[4:], 3, 4, id="dropped"),
        pytest.param(lambda ls: ls[:4] + ls[3:], 4, 3, id="duplicated"),
    ],
)
def test_feed_rejects_a_broken_window(
    spark, tmp_path, stream, monkeypatch, mutate, expected, got
):
    """A dropped or replayed event inside a window fails the query, naming
    the expected and received seq, and leaves the session conf as it was."""
    hit = _corrupt_one_file(monkeypatch, "middle", mutate)
    assert spark.conf.get(CKPT_MANAGER_CONF, None) is None
    with pytest.raises(StreamingQueryException) as err:
        run_streaming_estimate(
            spark, stream, WSD(40, "triangle", heuristic_weight, seed=1),
            window_size=len(stream) // 5, work_dir=tmp_path,
        )
    first = hit["first"]
    assert f"expected seq {first + expected}, got {first + got}" in str(err.value)
    assert spark.conf.get(CKPT_MANAGER_CONF, None) is None


def test_dropped_final_event_is_rejected(spark, tmp_path, stream, monkeypatch):
    _corrupt_one_file(monkeypatch, "last", lambda ls: ls[:-1])
    n = len(stream)
    with pytest.raises(RuntimeError, match=f"expected seq {n - 1} last, got {n - 2}"):
        run_streaming_estimate(
            spark, stream, WSD(40, "triangle", heuristic_weight, seed=1),
            window_size=n // 5, work_dir=tmp_path,
        )
