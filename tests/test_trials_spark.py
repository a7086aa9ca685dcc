"""Spark Monte-Carlo fan-out tests: parity with local execution and
oracle-checked aggregation."""
import logging

import numpy as np
import pandas as pd
import pytest

from repro.core.runner import are, mare, run_trial
from repro.exact.incremental import truth_trajectory
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.factory import ALGOS_DYNAMIC, make_sampler
from repro.harness.trials import aggregate, run_trials, trial_frame
from repro.oracle import assert_equivalent
from repro.rl.policy import heuristic_init_params


@pytest.fixture(scope="module")
def setting():
    edges = generate("cit-HE", scale=0.06)
    stream = make_stream(edges, "light", beta_l=0.2, seed=3)
    ck = max(1, len(stream) // 10)
    _, truth = truth_trajectory(stream, "triangle", ck)
    return {"stream": stream, "ck": ck, "truth": truth, "M": 60}


ALGOS = [("WSD-H", "WSD-H", None), ("Triest", "Triest", None), ("ThinkD", "ThinkD", None)]


def _wsdl_policy() -> dict:
    pol = heuristic_init_params("triangle")
    return {"W": pol["W"], "b": pol["b"], "pattern": "triangle", "variant": "max"}


def test_spark_trials_match_local(spark, setting):
    """Every (algo, run) trial in the fan-out must equal the same trial run
    sequentially on the driver, bit for bit — full determinism across the
    cluster, for every algorithm of the dynamic tables."""
    algos = [(n, n, _wsdl_policy() if n == "WSD-L" else None) for n in ALGOS_DYNAMIC]
    res = run_trials(
        spark, setting["stream"], "triangle", setting["M"], algos,
        n_runs=2, ckpt_every=setting["ck"], truth=setting["truth"],
    ).toPandas()
    assert sorted(set(res["label"])) == sorted(ALGOS_DYNAMIC)
    policies = {label: pol for label, _, pol in algos}
    for _, row in res.iterrows():
        sampler = make_sampler(
            row["label"], setting["M"], "triangle", int(row["run"]),
            policy=policies[row["label"]],
        )
        local = run_trial(setting["stream"], sampler, setting["ck"])
        assert local["final"] == row["final"]
        assert are(local["final"], setting["truth"][-1]) == row["are"]
        assert mare(local["est"], setting["truth"]) == row["mare"]


def _final_stage_tasks(sc, group: str) -> int:
    """Task count of the last completed stage run under job group
    ``group``: the result stage, where the trials execute."""
    tracker = sc.statusTracker()
    stages = {}
    for job in tracker.getJobIdsForGroup(group):
        for sid in tracker.getJobInfo(job).stageIds:
            info = tracker.getStageInfo(sid)
            if info is not None and info.numCompletedTasks > 0:
                stages[sid] = info.numTasks
    return stages[max(stages)]


def test_fanout_runs_in_parallel_tasks(spark, setting, caplog):
    """With at least ``defaultParallelism`` trials the fan-out stage must
    run several tasks: a coalesced (serial) fan-out would run one."""
    caplog.set_level(logging.INFO, logger="repro.harness.trials")
    sc = spark.sparkContext
    n_runs = -(-sc.defaultParallelism // len(ALGOS))
    group = "test-fanout-parallel"
    sc.setJobGroup(group, "trial fan-out parallelism")
    try:
        res = run_trials(
            spark, setting["stream"], "triangle", setting["M"], ALGOS,
            n_runs=n_runs, ckpt_every=setting["ck"], truth=setting["truth"],
        ).toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert _final_stage_tasks(sc, group) >= sc.defaultParallelism
    # every (label, run) exactly once
    assert len(res) == len(ALGOS) * n_runs
    assert set(zip(res["label"], res["run"])) == {
        (label, r) for label, _, _ in ALGOS for r in range(n_runs)
    }
    # one INFO line per fan-out, none per trial
    (msg,) = [r.getMessage() for r in caplog.records if r.name == "repro.harness.trials"]
    assert f"{len(res)} trials in {sc.defaultParallelism} partitions" in msg


def test_trial_frame_aggregates_all_algos(spark, setting):
    agg = trial_frame(
        spark, setting["stream"], "triangle", setting["M"], ALGOS,
        n_runs=3, ckpt_every=setting["ck"], truth=setting["truth"],
    )
    assert sorted(agg["label"]) == sorted(l for l, _, _ in ALGOS)
    assert (agg["n_runs"] == 3).all()
    assert (agg["time_s"] > 0).all()


def test_aggregate_matches_duckdb_oracle(spark, setting):
    """The Spark SQL mean aggregation is itself oracle-checked."""
    res = run_trials(
        spark, setting["stream"], "triangle", setting["M"], ALGOS,
        n_runs=3, ckpt_every=setting["ck"], truth=setting["truth"],
    )
    res.cache()
    pdf = res.toPandas()
    from pyspark.sql import functions as F

    agg_df = res.groupBy("label").agg(
        F.mean("are").alias("mean_are"), F.count("run").alias("n")
    )
    assert_equivalent(
        agg_df,
        "SELECT label, avg(are) AS mean_are, count(run) AS n FROM trials GROUP BY label",
        trials=pdf,
    )


def test_wsdl_runs_in_fanout_with_policy(spark, setting):
    algos = [("WSD-L", "WSD-L", _wsdl_policy()), ("WSD-H", "WSD-H", None)]
    agg = trial_frame(
        spark, setting["stream"], "triangle", setting["M"], algos,
        n_runs=2, ckpt_every=setting["ck"], truth=setting["truth"],
    )
    a = agg.set_index("label")
    # warm-start policy ≡ heuristic: identical metrics per seed
    assert a.loc["WSD-L", "are"] == pytest.approx(a.loc["WSD-H", "are"])


def test_factory_unknown_algo():
    with pytest.raises(ValueError):
        make_sampler("Magic", 10, "triangle", 0)


def test_factory_wsdl_requires_policy():
    with pytest.raises(ValueError):
        make_sampler("WSD-L", 10, "triangle", 0)
