"""Per-table experiment drivers — one function per experiment family of
Section V — and ``TABLES``, the registry of the paper's 13 tables that every
entry point (``jobs/run_tables.py``, ``benchmarks/bench_tables.py``, the
smoke test ``tests/test_jobs.py``) runs through ``run_table``. Each driver returns a tidy
pandas DataFrame whose rows correspond to the paper's table cells (ARE/MARE
in %, time in seconds per trial).

Policies for WSD-L are trained (or loaded from cache) on the Table I
*training* graph of each dataset's category, under the same deletion
scenario and pattern as the experiment — exactly the paper's protocol.
"""
from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

import pandas as pd
from pyspark.sql import SparkSession

from ..exact.incremental import truth_trajectory
from ..graphs.generators import DATASETS, TRAIN_OF, generate
from ..graphs.streams import make_stream
from ..rl.train import TrainConfig, get_or_train_policy
from .config import ExpConfig
from .factory import ALGOS_DYNAMIC, ALGOS_INSERTION
from .reporting import pivot_metric, save_table
from .trials import trial_frame

__all__ = [
    "TABLES",
    "TABLE_TRAIN",
    "TEST_GRAPHS",
    "TRAIN_GRAPHS",
    "dataset_stats",
    "run_table",
    "table_main",
    "table_insertion_only",
    "table_transfer",
    "table_training",
    "table_ablation",
]

TEST_GRAPHS = ["cit-PT", "com-YT", "soc-TW", "web-GL", "synthetic"]
TRAIN_GRAPHS = ["cit-HE", "com-DB", "soc-TX", "web-SF", "synthetic-train"]
# the paper's 4-clique tables omit soc-TW (too expensive); we follow suit
TEST_GRAPHS_4CLIQUE = ["cit-PT", "com-YT", "web-GL", "synthetic"]

# the training config behind the committed tables and results/policies
# (paper: 1000 iterations on 10 streams)
TABLE_TRAIN = TrainConfig(iters=1000, n_streams=3, scale=0.25, restarts=2)


def _policy(policy_dir, dataset, scenario, pattern, train_cfg, variant="max") -> dict:
    """The cached (or freshly trained) WSD-L policy as a broadcast payload."""
    policy, _ = get_or_train_policy(policy_dir, dataset, scenario, pattern, train_cfg, variant)
    return policy.to_dict()


def _dataset_stream(name: str, scenario: str, cfg: ExpConfig):
    edges = generate(name, scale=cfg.scale)
    stream = make_stream(
        edges,
        scenario,
        alpha=cfg.alpha,
        beta_m=cfg.beta_m,
        beta_l=cfg.beta_l,
        seed=cfg.stream_seed,
    )
    return edges, stream


def _cell(spark, ds: str, scenario: str, pattern: str, spec, cfg: ExpConfig):
    """One dataset's rows: stream → M → checkpoints → truth → trials.
    Returns the aggregated frame (with a leading ``graph`` column) and the
    cell's final truth, M and event count."""
    edges, stream = _dataset_stream(ds, scenario, cfg)
    M = cfg.reservoir_size(len(edges))
    ck = cfg.ckpt_every(len(stream))
    _, truth = truth_trajectory(stream, pattern, ck)
    agg = trial_frame(
        spark, stream, pattern, M, spec,
        n_runs=cfg.n_runs, ckpt_every=ck, mare_floor=cfg.mare_floor,
        wr_ratio=cfg.wr_ratio, truth=truth,
    )
    agg.insert(0, "graph", ds)
    return agg, {"truth": truth[-1], "M": M, "events": len(stream)}


def dataset_stats(cfg: ExpConfig) -> pd.DataFrame:
    """Our analogue of Table I: |V|, |E| of every train/test proxy."""
    rows = []
    for name in TEST_GRAPHS + TRAIN_GRAPHS:
        edges = generate(name, scale=cfg.scale)
        n_v = len(set(edges[:, 0].tolist()) | set(edges[:, 1].tolist()))
        rows.append(
            {
                "graph": name,
                "role": "test" if name in TEST_GRAPHS else "train",
                "category": DATASETS[name]["kind"],
                "V": n_v,
                "E": len(edges),
            }
        )
    return pd.DataFrame(rows)


def table_main(
    spark: SparkSession,
    pattern: str,
    scenario: str,
    cfg: ExpConfig,
    *,
    datasets: list[str] | None = None,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig = TABLE_TRAIN,
    algos: list[str] | None = None,
) -> pd.DataFrame:
    """Tables II/III/VII (massive) and VIII/IX/X (light): ARE, MARE and
    per-trial runtime of every algorithm on every dataset."""
    if datasets is None:
        datasets = TEST_GRAPHS_4CLIQUE if pattern == "4clique" else TEST_GRAPHS
    algos = algos or ALGOS_DYNAMIC
    out = []
    for ds in datasets:
        spec = [
            (name, name, _policy(policy_dir, TRAIN_OF[ds], scenario, pattern, train_cfg)
             if name == "WSD-L" else None)
            for name in algos
        ]
        agg, info = _cell(spark, ds, scenario, pattern, spec, cfg)
        out.append(agg.assign(**info))
    return pd.concat(out, ignore_index=True)


def table_insertion_only(
    spark: SparkSession,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig = TABLE_TRAIN,
    dataset: str = "cit-PT",
    pattern: str = "triangle",
) -> pd.DataFrame:
    """Table VI: triangles on cit-PT, insertion-only (WSD-H ≡ GPS-A ≡ GPS)."""
    return table_main(
        spark, pattern, "insertion-only", cfg,
        datasets=[dataset], policy_dir=policy_dir, train_cfg=train_cfg,
        algos=ALGOS_INSERTION,
    )


def table_transfer(
    spark: SparkSession,
    scenario: str,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig = TABLE_TRAIN,
    pattern: str = "triangle",
    test_graphs: list[str] | None = None,
    train_graphs: list[str] | None = None,
) -> pd.DataFrame:
    """Tables V/XII: ARE of counting triangles when the policy trained on
    category A's training graph is applied to category B's test graph,
    plus the WSD-H reference column."""
    test_graphs = test_graphs or ["cit-PT", "com-YT", "soc-TW", "web-GL"]
    spec = [
        (tg, "WSD-L", _policy(policy_dir, tg, scenario, pattern, train_cfg))
        for tg in train_graphs or TRAIN_GRAPHS
    ]
    spec.append(("WSD-H", "WSD-H", None))
    return pd.concat(
        [_cell(spark, ds, scenario, pattern, spec, cfg)[0] for ds in test_graphs],
        ignore_index=True,
    )


def table_training(
    scenario: str,
    *,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig = TABLE_TRAIN,
    train_graphs: list[str] | None = None,
    patterns: list[str] | None = None,
) -> pd.DataFrame:
    """Tables IV/XI: training wall-time per (training graph, pattern)."""
    rows = []
    for g in train_graphs or ["cit-HE", "com-DB", "soc-TX", "web-SF"]:
        for pat in patterns or ["triangle", "wedge"]:
            _, info = get_or_train_policy(policy_dir, g, scenario, pat, train_cfg)
            rows.append(
                {
                    "graph": g,
                    "pattern": pat,
                    "train_time_s": info["train_time_s"],
                    "cached": info["cached"],
                }
            )
    return pd.DataFrame(rows)


def table_ablation(
    spark: SparkSession,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path = "results/policies",
    train_cfg: TrainConfig = TABLE_TRAIN,
    pattern: str = "triangle",
    scenarios: list[str] | None = None,
    test_graphs: list[str] | None = None,
) -> pd.DataFrame:
    """Table XIII: WSD-L(Max) vs WSD-L(Avg) vs WSD-H, both scenarios."""
    out = []
    for scenario in scenarios or ["massive", "light"]:
        for ds in test_graphs or ["cit-PT", "com-YT", "soc-TW", "web-GL"]:
            spec = [
                (label, "WSD-L",
                 _policy(policy_dir, TRAIN_OF[ds], scenario, pattern, train_cfg, variant))
                for variant, label in (("max", "WSD-L (Max)"), ("avg", "WSD-L (Avg)"))
            ]
            spec.append(("WSD-H", "WSD-H", None))
            agg, _ = _cell(spark, ds, scenario, pattern, spec, cfg)
            agg.insert(0, "scenario", scenario)
            out.append(agg)
    return pd.concat(out, ignore_index=True)


# ---------------------------------------------------------------------------
# The table registry
# ---------------------------------------------------------------------------
class Table(NamedTuple):
    """One paper table: its title, driver call and pivot layout."""

    title: str
    # (spark, cfg, *, policy_dir, train_cfg) -> tidy frame
    run: Callable[..., pd.DataFrame]
    # one ``<name>_<metric>`` pivot per metric, rows keyed by ``index``
    metrics: tuple[str, ...] = ("are", "mare", "time_s")
    index: str | list[str] = "graph"


def _main(pattern: str, scenario: str, **cfg_over):
    def run(spark, cfg, **kw):
        return table_main(spark, pattern, scenario, cfg.with_(**cfg_over), **kw)
    return run


_4CLIQUE = {"m_ratio": 0.15, "mare_floor": 10.0}  # see DESIGN.md §4

TABLES: dict[str, Table] = {
    "table01": Table("Table I: dataset statistics (proxy graphs)",
                     lambda spark, cfg, **kw: dataset_stats(cfg), metrics=()),
    "table02": Table("Table II: counting wedges, massive deletion", _main("wedge", "massive")),
    "table03": Table("Table III: counting triangles, massive deletion",
                     _main("triangle", "massive")),
    "table04": Table("Table IV: training time (massive deletion)",
                     lambda spark, cfg, **kw: table_training("massive", **kw), metrics=()),
    "table05": Table("Table V: transferability (massive deletion)",
                     lambda spark, cfg, **kw: table_transfer(spark, "massive", cfg, **kw),
                     metrics=("are",)),
    "table06": Table("Table VI: insertion-only scenario, triangles on cit-PT",
                     table_insertion_only),
    "table07": Table("Table VII: counting 4-cliques, massive deletion",
                     _main("4clique", "massive", **_4CLIQUE)),
    "table08": Table("Table VIII: counting wedges, light deletion", _main("wedge", "light")),
    "table09": Table("Table IX: counting triangles, light deletion", _main("triangle", "light")),
    "table10": Table("Table X: counting 4-cliques, light deletion",
                     _main("4clique", "light", **_4CLIQUE)),
    "table11": Table("Table XI: training time (light deletion)",
                     lambda spark, cfg, **kw: table_training("light", **kw), metrics=()),
    "table12": Table("Table XII: transferability (light deletion)",
                     lambda spark, cfg, **kw: table_transfer(spark, "light", cfg, **kw),
                     metrics=("are",)),
    "table13": Table("Table XIII: ablation on temporal state (Max vs Avg)",
                     table_ablation, metrics=("are",), index=["scenario", "graph"]),
}


def run_table(
    name: str,
    spark: SparkSession | None,
    cfg: ExpConfig,
    *,
    policy_dir: str | Path,
    train_cfg: TrainConfig,
    results_dir: str | Path,
) -> pd.DataFrame:
    """Run registry entry ``name`` and write its artifacts to
    ``results_dir``: ``<name>_tidy`` and one ``<name>_<metric>`` pivot per
    metric, each as JSON + markdown. Returns the tidy frame."""
    table = TABLES[name]
    df = table.run(spark, cfg, policy_dir=policy_dir, train_cfg=train_cfg)
    save_table(df, f"{name}_tidy", results_dir, title=f"{table.title} (tidy)")
    for metric in table.metrics:
        save_table(
            pivot_metric(df, metric, index=table.index),
            f"{name}_{metric}", results_dir, title=f"{table.title} — {metric}",
        )
    return df
