"""The benchmark's workloads.

Each workload runs on the graph and stream of its paper-table cell (the
harness's fixed dataset and stream seeds); ``--seed`` picks the Monte-Carlo
inputs: the trial seeds, the sampler seed and the policy-training seed.
Seed 0 reproduces the tables exactly. A workload sets up (Spark, warm-up,
policy training), runs its unit of work through the public functions of
``repro`` and checks the outputs. ``unit(tracer)`` returns a record; with a
tracer it also wraps the calls into each layer in spans, from which
``layers`` derives the per-layer metrics.

* ``cell-triangle-massive``: one Table III cell on soc-TW (edges →
  aggregated table rows through the Spark fan-out).
* ``train-wedge-light``: one Table XI cell, ``train_policy`` on web-SF.
* ``stream-triangle-light``: WSD-H over the cit-PT light-deletion stream via
  Structured Streaming, with ``run_trial`` as the single-threaded baseline.
"""
from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from sparkenv import spark_info, start_spark, stop_spark

__all__ = ["WORKLOADS", "DEFAULT_SEED"]

DEFAULT_SEED = 0  # the seed the paper tables use; the golden file holds its outputs
# jobs/_common.JOB_TRAIN: the training config behind the committed tables
TABLE_TRAIN = dict(iters=1000, n_streams=3, scale=0.25, restarts=2)
# ≥ 101 window emissions → ≥ 100 gaps, so p90 has ≥ 10 samples beyond it
N_WINDOWS = 105


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _patched(tracer, targets):
    return tracer.patched(targets) if tracer is not None else nullcontext()


def _policy_dict(policy) -> dict:
    return {
        "W": policy.params["W"],
        "b": policy.params["b"],
        "pattern": policy.pattern,
        "variant": policy.variant,
    }


def _policy_golden(policy) -> dict:
    return {"W": policy.params["W"].tolist(), "b": policy.params["b"].tolist()}


class Workload:
    name = ""
    # set-ups per run; ``setup_s`` is their median. A Spark workload sets up
    # once: its set-up starts a JVM and costs 15-20 s of the run's budget.
    SETUPS = 1

    def __init__(self, seed: int, work: Path, src: Path, golden: dict) -> None:
        self.seed = seed
        self.work = work
        self.src = src
        self.golden = golden.get(self.name) if seed == DEFAULT_SEED else None
        self.spark = None
        self.info: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, tracer=None) -> dict:
        raise NotImplementedError

    def checks(self, rec: dict, tracer=None) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def layers(self, rec: dict, tracer) -> dict[str, float]:
        raise NotImplementedError

    def named(self, units: list[dict]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end metrics, by name, with their unit."""
        raise NotImplementedError

    def golden_of(self, rec: dict) -> dict:
        raise NotImplementedError

    def _start_spark(self) -> None:
        self.spark = start_spark(self.src, self.work)
        self.info = spark_info(self.spark)

    def _exact_check(self, stream, pattern: str, truth_final: float, tracer) -> tuple:
        """Incremental truth against the Spark-SQL count over the edges
        alive at the end of the stream."""
        from repro.exact import spark_counts

        with _span(tracer, "exact.spark_sql"):
            alive = spark_counts.alive_edges(stream)
            sql = spark_counts.exact_count_df(self.spark, alive, pattern).collect()[0][0]
        return ("exact: incremental truth == Spark-SQL count", int(sql) == truth_final,
                f"incremental {truth_final:.0f}, spark-sql {sql}")

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


class Cell(Workload):
    name = "cell-triangle-massive"
    DATASET, SCENARIO, PATTERN = "soc-TW", "massive", "triangle"

    def setup(self) -> None:
        from repro.graphs.generators import TRAIN_OF
        from repro.harness import factory, trials
        from repro.rl import policy as rl_policy, train

        self._start_spark()
        # warm-up: one tiny fan-out running every algorithm, so Python workers
        # exist and have imported the kernels before the timed cell
        warm = self._inputs("cit-HE", "light", 0.05)[1]
        heur = rl_policy.LearnedPolicy(rl_policy.heuristic_init_params(self.PATTERN), self.PATTERN)
        spec = [(n, n, _policy_dict(heur) if n == "WSD-L" else None) for n in factory.ALGOS_DYNAMIC]
        trials.run_trials(self.spark, warm, self.PATTERN, 30, spec, n_runs=1, ckpt_every=100).toPandas()
        # the WSD-L policy for this cell, trained into a fresh directory
        policy, _ = train.get_or_train_policy(
            self.work / "policies", TRAIN_OF[self.DATASET], self.SCENARIO, self.PATTERN,
            train.TrainConfig(**TABLE_TRAIN, seed=self.seed),
        )
        self.policy = policy

    def _inputs(self, dataset: str, scenario: str, scale: float):
        from repro.graphs import generators, streams
        from repro.harness.config import BENCH

        edges = generators.generate(dataset, scale=scale)
        stream = streams.make_stream(
            edges, scenario, alpha=BENCH.alpha, beta_m=BENCH.beta_m,
            beta_l=BENCH.beta_l, seed=BENCH.stream_seed,
        )
        return edges, stream

    def unit(self, tracer=None) -> dict:
        from repro.exact import incremental
        from repro.graphs import generators, streams
        from repro.harness import factory, trials
        from repro.harness.config import BENCH

        cfg = BENCH
        seed0 = self.seed * cfg.n_runs
        spec = [
            (n, n, _policy_dict(self.policy) if n == "WSD-L" else None)
            for n in factory.ALGOS_DYNAMIC
        ]
        sc = self.spark.sparkContext
        group = f"perfbench-fanout-{time.time_ns()}"
        with _patched(tracer, [
            (generators, "generate", "graphs.generate"),
            (streams, "make_stream", "graphs.make_stream"),
            (incremental, "truth_trajectory", "exact.truth_trajectory"),
        ]):
            t0 = time.perf_counter()
            edges, stream = self._inputs(self.DATASET, self.SCENARIO, cfg.scale)
            M = cfg.reservoir_size(len(edges))
            ck = cfg.ckpt_every(len(stream))
            _, truth = incremental.truth_trajectory(stream, self.PATTERN, ck)
            if tracer is not None:
                sc.setJobGroup(group, "perfbench trial fan-out")
            with _span(tracer, "harness.trial_frame"):
                # run_trials + aggregate, as trial_frame does, with the
                # per-trial rows materialised once so the checks can read them
                per_trial = trials.run_trials(
                    self.spark, stream, self.PATTERN, M, spec,
                    n_runs=cfg.n_runs, ckpt_every=ck, mare_floor=cfg.mare_floor,
                    wr_ratio=cfg.wr_ratio, seed0=seed0, truth=truth,
                ).toPandas()
                agg = trials.aggregate(self.spark.createDataFrame(per_trial))
            t1 = time.perf_counter()
            group_end_ms = time.time() * 1000.0
            if tracer is not None:
                sc.setLocalProperty("spark.jobGroup.id", None)
        return {
            "unit_s": t1 - t0, "stream": stream, "truth": truth, "M": M, "ck": ck,
            "seed0": seed0, "spec": spec, "per_trial": per_trial, "agg": agg,
            "group": group, "group_end_ms": group_end_ms, "events": len(stream),
        }

    def checks(self, rec: dict, tracer=None) -> list[tuple[str, bool, str]]:
        from repro.core.runner import run_trial
        from repro.harness import factory
        from repro.harness.config import BENCH

        cfg = BENCH
        out = []
        pt = rec["per_trial"]
        labels = [label for label, _, _ in rec["spec"]]
        counts = pt.groupby("label").size().to_dict()
        once = len(pt) == len(set(zip(pt["label"], pt["run"])))
        out.append(("fan-out: every (algorithm, run) once",
                    once and counts == {label: cfg.n_runs for label in labels},
                    f"{len(pt)} rows over {len(counts)} labels"))
        agg = rec["agg"]
        out.append(("aggregate: one finite row per algorithm",
                    sorted(agg["label"]) == sorted(labels)
                    and bool(np.isfinite(agg[["are", "mare", "time_s"]].to_numpy()).all()),
                    f"labels {sorted(agg['label'])}"))
        r = self.seed % cfg.n_runs
        for label, name, pol in rec["spec"]:
            sampler = factory.make_sampler(
                name, rec["M"], self.PATTERN, rec["seed0"] + r, policy=pol, wr_ratio=cfg.wr_ratio
            )
            serial = run_trial(rec["stream"], sampler, rec["ck"])["final"]
            fan = pt.loc[(pt["label"] == label) & (pt["run"] == r), "final"].tolist()
            out.append((f"replay: serial {label} run {r} == fan-out", fan == [serial],
                        f"serial {serial!r}, fan-out {fan}"))
        out.append(self._exact_check(rec["stream"], self.PATTERN, float(rec["truth"][-1]), tracer))
        if self.golden is not None:
            got = self.golden_of(rec)
            for key in ("finals", "policy"):
                out.append((f"golden: {key} at seed {DEFAULT_SEED}", got[key] == self.golden[key],
                            "identical" if got[key] == self.golden[key] else "differs from perfbench/golden.json"))
        return out

    def golden_of(self, rec: dict) -> dict:
        pt = rec["per_trial"].sort_values(["label", "run"])
        finals = {label: g["final"].tolist() for label, g in pt.groupby("label")}
        return {"finals": finals, "policy": _policy_golden(self.policy)}

    def named(self, units: list[dict]) -> dict[str, tuple[float, str]]:
        return {"cell_s": (statistics.median(u["unit_s"] for u in units), "s")}

    def layers(self, rec: dict, tracer) -> dict[str, float]:
        agg = rec["agg"]
        cores = self.spark.sparkContext.defaultParallelism
        fanout = tracer.total("harness.trial_frame")
        kernel = float((agg["time_s"] * agg["n_runs"]).sum())
        out = {
            "harness.fanout_s": fanout,
            "harness.fanout_tasks": self._fanout_tasks(rec["group"], rec["group_end_ms"]),
            "harness.kernel_sum_s": kernel,
            "harness.spark_overhead_s": fanout - kernel / cores,
            "harness.fanout_efficiency": kernel / (cores * fanout),
            "graphs.generate_s": tracer.total("graphs.generate"),
            "graphs.make_stream_s": tracer.total("graphs.make_stream"),
            "exact.truth_s": tracer.total("exact.truth_trajectory"),
            "exact.spark_sql_s": tracer.total("exact.spark_sql"),
        }
        for label, t in zip(agg["label"], agg["time_s"]):
            layer = "core" if label in ("WSD-L", "WSD-H", "GPS-A") else "baselines"
            out[f"{layer}.us_per_event.{label}"] = float(t) * 1e6 / rec["events"]
        return out

    def _fanout_tasks(self, group: str, end_ms: float) -> int:
        """Task count of the longest stage under the fan-out's job group.

        PySpark's ``StatusTracker`` gives stage ids and task counts; stage
        submission times come from the JVM tracker it wraps. Stages of one
        fan-out run one after another, so a stage lasts until the next one
        is submitted (the last until ``end_ms``, when the fan-out returned)."""
        tracker = self.spark.sparkContext.statusTracker()
        stages = []
        for job in tracker.getJobIdsForGroup(group):
            for sid in tracker.getJobInfo(job).stageIds:
                info = tracker.getStageInfo(sid)
                jinfo = tracker._jtracker.getStageInfo(sid)
                if info is None or jinfo is None or info.numCompletedTasks == 0:
                    continue  # skipped (reused) stage
                stages.append((jinfo.submissionTime(), info.numTasks))
        stages.sort()
        if not stages:
            raise RuntimeError(f"no completed stages under job group {group}")
        ends = [s for s, _ in stages[1:]] + [end_ms]
        longest = max(range(len(stages)), key=lambda i: ends[i] - stages[i][0])
        return stages[longest][1]


class Train(Workload):
    name = "train-wedge-light"
    DATASET, SCENARIO, PATTERN = "web-SF", "light", "wedge"
    SETUPS = 5

    def setup(self) -> None:
        from repro.rl import train

        # warm-up: a tiny run through every part of train_policy
        train.train_policy(
            self.DATASET, self.SCENARIO, self.PATTERN,
            train.TrainConfig(iters=2, n_streams=1, scale=0.05, batch=16, seed=self.seed),
        )
        self._last = None
        self.info = {"nproc": len(os.sched_getaffinity(0)), "spark": "not used",
                     "python": sys.version.split()[0]}

    def unit(self, tracer=None) -> dict:
        from repro.exact import incremental
        from repro.graphs import generators, streams
        from repro.rl import ddpg, env, train

        cfg = train.TrainConfig(**TABLE_TRAIN, seed=self.seed)
        with _patched(tracer, [
            (ddpg.DDPG, "update", "rl.update"),
            (env.WSDEnv, "step", "rl.env_step"),
            (generators, "generate", "graphs.generate"),
            (streams, "make_stream", "graphs.make_stream"),
            (incremental, "truth_trajectory", "exact.truth_trajectory"),
        ]):
            t0 = time.perf_counter()
            with _span(tracer, "rl.train_policy"):
                policy, info = train.train_policy(
                    self.DATASET, self.SCENARIO, self.PATTERN, cfg
                )
            t1 = time.perf_counter()
        return {"unit_s": t1 - t0, "policy": policy, "info": info, "cfg": cfg}

    def checks(self, rec: dict, tracer=None) -> list[tuple[str, bool, str]]:
        info, cfg, policy = rec["info"], rec["cfg"], rec["policy"]
        W, b = policy.params["W"], policy.params["b"]
        want = cfg.iters * cfg.restarts
        out = [
            ("train: every restart ran all updates", info["updates"] == want,
             f"{info['updates']} updates, want {want}"),
            ("train: selected candidate has the lowest validation error",
             info["selected"] == int(np.argmin(info["val_scores"])),
             f"selected {info['selected']} of {len(info['val_scores'])}"),
            ("train: actor parameters finite",
             bool(np.isfinite(W).all() and np.isfinite(b).all()), f"W {W.tolist()}, b {b.tolist()}"),
        ]
        if self._last is not None:
            same = _policy_golden(policy) == _policy_golden(self._last)
            out.append(("train: same seed, same policy as the previous unit", same,
                        "identical" if same else "differs"))
        self._last = policy
        if self.golden is not None:
            ok = self.golden_of(rec) == self.golden
            out.append((f"golden: policy at seed {DEFAULT_SEED}", ok,
                        "identical" if ok else "differs from perfbench/golden.json"))
        return out

    def golden_of(self, rec: dict) -> dict:
        return {"policy": _policy_golden(rec["policy"])}

    def named(self, units: list[dict]) -> dict[str, tuple[float, str]]:
        return {"train_s": (statistics.median(u["unit_s"] for u in units), "s")}

    def layers(self, rec: dict, tracer) -> dict[str, float]:
        return {
            "rl.update_s": tracer.total("rl.update"),
            "rl.updates": tracer.count("rl.update"),
            "rl.env_step_s": tracer.total("rl.env_step"),
            "rl.env_steps": tracer.count("rl.env_step"),
            "rl.train_self_s": tracer.self_time("rl.train_policy"),
            "graphs.generate_s": tracer.total("graphs.generate"),
            "graphs.make_stream_s": tracer.total("graphs.make_stream"),
            "exact.truth_s": tracer.total("exact.truth_trajectory"),
        }


class EstimateClock:
    """Sampler proxy that timestamps every read of ``estimate``.

    ``process`` is the inner sampler's bound method, so events cost exactly
    what they cost without the proxy. The streaming driver reads
    ``estimate`` once per window, when it emits the window's row."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.process = inner.process
        self.reads: list[float] = []

    @property
    def estimate(self) -> float:
        self.reads.append(time.perf_counter())
        return self.inner.estimate


class Stream(Workload):
    name = "stream-triangle-light"
    DATASET, SCENARIO, PATTERN, ALGO = "cit-PT", "light", "triangle", "WSD-H"

    def setup(self) -> None:
        from repro.core.weights import heuristic_weight
        from repro.core.wsd import WSD
        from repro.graphs import generators, streams
        from repro.streaming import windowed

        self._start_spark()
        # warm-up: one tiny streaming query
        warm = streams.make_stream(generators.generate("cit-HE", scale=0.05), "light", seed=1)
        windowed.run_streaming_estimate(
            self.spark, warm, WSD(30, self.PATTERN, heuristic_weight, seed=1),
            window_size=len(warm) // 3 + 1, work_dir=self.work / "warm-stream",
        )
        self._n = 0

    def unit(self, tracer=None) -> dict:
        from repro.core.runner import run_trial
        from repro.graphs import generators, streams
        from repro.harness import factory
        from repro.harness.config import BENCH
        from repro.streaming import windowed

        cfg = BENCH
        self._n += 1
        work_dir = self.work / f"stream-{self._n}"
        with _patched(tracer, [
            (generators, "generate", "graphs.generate"),
            (streams, "make_stream", "graphs.make_stream"),
            (windowed, "write_event_files", "streaming.write_event_files"),
        ]):
            edges = generators.generate(self.DATASET, scale=cfg.scale)
            stream = streams.make_stream(
                edges, self.SCENARIO, beta_l=cfg.beta_l, seed=cfg.stream_seed
            )
            M = cfg.reservoir_size(len(edges))
            window = len(stream) // N_WINDOWS
            clock = EstimateClock(factory.make_sampler(self.ALGO, M, self.PATTERN, self.seed))
            t0 = time.perf_counter()
            with _span(tracer, "streaming.run_streaming_estimate"):
                df = windowed.run_streaming_estimate(
                    self.spark, stream, clock, window_size=window, work_dir=work_dir
                )
            t1 = time.perf_counter()
        shutil.rmtree(work_dir, ignore_errors=True)
        batch = run_trial(stream, factory.make_sampler(self.ALGO, M, self.PATTERN, self.seed), window)
        gaps_ms = np.diff(np.asarray(clock.reads)) * 1000.0
        return {
            "unit_s": t1 - t0, "stream": stream, "df": df, "batch": batch,
            "reads": len(clock.reads), "gaps_ms": gaps_ms, "events": len(stream),
        }

    def checks(self, rec: dict, tracer=None) -> list[tuple[str, bool, str]]:
        from repro.exact import incremental

        df, batch, n = rec["df"], rec["batch"], rec["events"]
        out = [
            ("stream: every event delivered once, in order",
             int(df["n_events"].sum()) == n and int(df["last_seq"].iloc[-1]) == n - 1,
             f"{int(df['n_events'].sum())} of {n} events"),
            ("stream: enough windows for p90", len(df) >= 101 and rec["reads"] == len(df),
             f"{len(df)} windows, {rec['reads']} estimate reads"),
        ]
        same_idx = (df["last_seq"].to_numpy() + 1).tolist() == batch["ckpt_idx"].tolist()
        same_est = same_idx and df["estimate"].tolist() == batch["est"].tolist()
        out.append(("stream: per-window estimates == batch kernel", same_est,
                    f"{len(df)} windows vs {len(batch['est'])} checkpoints"))
        with _patched(tracer, [(incremental, "truth_trajectory", "exact.truth_trajectory")]):
            _, truth = incremental.truth_trajectory(rec["stream"], self.PATTERN, n)
        out.append(self._exact_check(rec["stream"], self.PATTERN, float(truth[-1]), tracer))
        if self.golden is not None:
            ok = self.golden_of(rec) == self.golden
            out.append((f"golden: window estimates at seed {DEFAULT_SEED}", ok,
                        "identical" if ok else "differs from perfbench/golden.json"))
        return out

    def golden_of(self, rec: dict) -> dict:
        return {"estimates": rec["df"]["estimate"].tolist()}

    def named(self, units: list[dict]) -> dict[str, tuple[float, str]]:
        gaps = np.concatenate([u["gaps_ms"] for u in units])
        wall = statistics.median(u["unit_s"] for u in units)
        return {
            "stream_events_per_s": (units[0]["events"] / wall, "events/s"),
            "window_ms_p50": (float(np.percentile(gaps, 50)), "ms"),
            "window_ms_p90": (float(np.percentile(gaps, 90)), "ms"),
            "window_gaps": (len(gaps), "count"),
        }

    def layers(self, rec: dict, tracer) -> dict[str, float]:
        kernel = rec["batch"]["time_s"]
        windows = len(rec["df"])
        return {
            "streaming.write_files_s": tracer.total("streaming.write_event_files"),
            "streaming.windows": windows,
            "streaming.batch_kernel_s": kernel,
            "streaming.overhead_ms_per_window": (rec["unit_s"] - kernel) / windows * 1000.0,
            "streaming.window_ms_p50": float(np.percentile(rec["gaps_ms"], 50)),
            "streaming.window_ms_p90": float(np.percentile(rec["gaps_ms"], 90)),
            "streaming.events_per_s": rec["events"] / rec["unit_s"],
            "core.us_per_event.WSD-H": kernel * 1e6 / rec["events"],
            "graphs.generate_s": tracer.total("graphs.generate"),
            "graphs.make_stream_s": tracer.total("graphs.make_stream"),
            "exact.truth_s": tracer.total("exact.truth_trajectory"),
            "exact.spark_sql_s": tracer.total("exact.spark_sql"),
        }


WORKLOADS = {w.name: w for w in (Cell, Train, Stream)}
