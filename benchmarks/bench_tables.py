"""Benchmarks reproducing the paper's Tables I–XIII: every entry of the
table registry runs once under pytest-benchmark (single round — each table
is a full multi-trial experiment, not a microbenchmark) at bench scale and
saves its artifacts under ``results/``."""
from pathlib import Path

import pytest

from repro.harness.config import BENCH
from repro.harness.tables import TABLE_TRAIN, TABLES, run_table

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
DYNAMIC = {"WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"}


def _datasets(df):
    assert len(df) == 10


def _dynamic(df):
    assert df["are"].notna().all()
    assert set(df["label"]) >= DYNAMIC


def _training(df):
    assert len(df) == 8
    assert (df["train_time_s"] > 0).all()


def _transfer(df):
    assert set(df["graph"]) == {"cit-PT", "com-YT", "soc-TW", "web-GL"}
    assert "WSD-H" in set(df["label"])
    assert len(set(df["label"])) == 6  # 5 training policies + WSD-H


def _insertion_only(df):
    assert set(df["label"]) == {"WSD-L", "GPS", "Triest", "ThinkD", "WRS"}


def _ablation(df):
    assert set(df["label"]) == {"WSD-L (Max)", "WSD-L (Avg)", "WSD-H"}
    assert set(df["scenario"]) == {"massive", "light"}


CHECKS = {
    "table01": _datasets,
    "table02": _dynamic,
    "table03": _dynamic,
    "table04": _training,
    "table05": _transfer,
    "table06": _insertion_only,
    "table07": _dynamic,
    "table08": _dynamic,
    "table09": _dynamic,
    "table10": _dynamic,
    "table11": _training,
    "table12": _transfer,
    "table13": _ablation,
}


@pytest.mark.parametrize("name", TABLES)
def test_table(benchmark, spark, name):
    df = benchmark.pedantic(
        run_table,
        args=(name, spark, BENCH),
        kwargs=dict(
            policy_dir=RESULTS_DIR / "policies", train_cfg=TABLE_TRAIN, results_dir=RESULTS_DIR
        ),
        rounds=1,
        iterations=1,
    )
    CHECKS[name](df)
