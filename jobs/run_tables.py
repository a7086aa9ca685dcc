#!/usr/bin/env python
"""Reproduce the paper's tables at bench scale: run the named entries of
``repro.harness.tables.TABLES`` (all 13 when none is given) and write their
artifacts to ``results/``. Builds (or reuses) the Spark session via
``getOrCreate``, so it works under spark-submit and as a plain
``python jobs/run_tables.py table03 --n-runs 12``."""
from __future__ import annotations

import argparse
from pathlib import Path

from pyspark.sql import SparkSession

from repro.harness.config import BENCH, ExpConfig
from repro.harness.tables import TABLE_TRAIN, TABLES, run_table

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def make_parser(desc: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--scale", type=float, default=BENCH.scale)
    ap.add_argument("--n-runs", type=int, default=BENCH.n_runs)
    ap.add_argument("--m-ratio", type=float, default=BENCH.m_ratio)
    return ap


def config_from(args) -> ExpConfig:
    return BENCH.with_(scale=args.scale, n_runs=args.n_runs, m_ratio=args.m_ratio)


def get_spark(name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(name)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def main(argv: list[str] | None = None) -> None:
    ap = make_parser(__doc__)
    ap.add_argument("names", nargs="*", help=f"tables to run (default: all of {', '.join(TABLES)})")
    args = ap.parse_args(argv)
    if unknown := sorted(set(args.names) - TABLES.keys()):
        ap.error(f"unknown table(s) {', '.join(unknown)}")
    cfg = config_from(args)
    spark = get_spark("run_tables")
    for name in args.names or TABLES:
        df = run_table(
            name, spark, cfg,
            policy_dir=RESULTS_DIR / "policies", train_cfg=TABLE_TRAIN, results_dir=RESULTS_DIR,
        )
        print(f"[{name}] {TABLES[name].title}")
        print(df.to_string(index=False))


if __name__ == "__main__":
    main()
