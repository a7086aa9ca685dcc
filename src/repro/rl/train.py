"""DDPG training loop for the WSD-L weight policy (Sections IV-B, V-A).

Follows the paper's protocol at reduced scale: for each (category, deletion
scenario, pattern) we train on several streams generated from the category's
*training* graph (Table I pairing) with the same deletion parameters as the
test stream, for a fixed number of gradient updates (paper: 1000 iterations,
replay 10k, batch 128, Adam lr 1e-3, γ = 0.99).

Trained policies are cached under ``results/policies`` keyed by
(dataset, scenario, pattern, variant) so every table reuses them; training
wall-time is recorded for Tables IV / XI.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..graphs.generators import generate
from ..graphs.streams import make_stream
from .ddpg import DDPG
from .env import WSDEnv
from .policy import LearnedPolicy, heuristic_init_params

__all__ = ["TrainConfig", "train_policy", "get_or_train_policy", "policy_path"]


@dataclass
class TrainConfig:
    iters: int = 600            # gradient updates (paper: 1000)
    n_streams: int = 3          # training streams (paper: 10)
    scale: float = 0.2          # training-graph scale factor
    M: int = 0                  # reservoir size during training (0 = use m_ratio)
    m_ratio: float = 0.05       # reservoir budget as a fraction of train |E|
    batch: int = 128            # paper: N = 128
    replay: int = 10_000        # paper: 10,000
    gamma: float = 0.99         # paper: 0.99
    lr: float = 1e-3            # paper: Adam 0.001
    sigma0: float = 3.0         # exploration noise, decayed per update
    sigma_decay: float = 0.995
    sigma_min: float = 0.2
    update_every: int = 4       # env steps per gradient update
    warm_start: bool = True     # init actor at the WSD-H heuristic
    restarts: int = 1           # independent DDPG runs pooled for selection
    alpha: float = 3e-4
    beta_m: float = 0.5
    beta_l: float = 0.2
    seed: int = 0


def _training_streams(dataset: str, scenario: str, cfg: TrainConfig):
    # ``dataset`` names the *training* graph itself (callers resolve the
    # Table I test→train pairing via generators.TRAIN_OF).
    edges = generate(dataset, scale=cfg.scale, seed_offset=0)
    return [
        make_stream(
            edges,
            scenario,
            alpha=cfg.alpha,
            beta_m=cfg.beta_m,
            beta_l=cfg.beta_l,
            seed=cfg.seed + 100 + i,
        )
        for i in range(cfg.n_streams)
    ]


def train_policy(
    dataset: str,
    scenario: str,
    pattern: str,
    cfg: TrainConfig | None = None,
    variant: str = "max",
) -> tuple[LearnedPolicy, dict]:
    """Train a WSD-L policy; returns (policy, info) with training wall-time
    and the per-episode return trace."""
    cfg = cfg or TrainConfig()
    t0 = time.perf_counter()
    streams = _training_streams(dataset, scenario, cfg)

    def m_for(stream) -> int:
        if cfg.M > 0:
            return cfg.M
        n_ins = int((stream["op"] > 0).sum())
        return max(50, int(cfg.m_ratio * n_ins))

    envs = [
        WSDEnv(s, pattern, m_for(s), seed=cfg.seed + i, variant=variant)
        for i, s in enumerate(streams)
    ]
    episode_returns: list[float] = []
    snapshots: list[dict[str, np.ndarray]] = []
    total_updates = 0
    total_eps = 0
    for restart in range(max(1, cfg.restarts)):
        agent = DDPG(
            envs[0].state_dim,
            actor_init=heuristic_init_params(pattern) if cfg.warm_start else None,
            gamma=cfg.gamma,
            lr=cfg.lr,
            replay_capacity=cfg.replay,
            batch=cfg.batch,
            seed=cfg.seed + 31 * restart,
        )
        sigma = cfg.sigma0
        snap_at = {cfg.iters // 3, 2 * cfg.iters // 3}
        steps = 0
        ep = 0
        while agent.updates < cfg.iters:
            env = envs[ep % len(envs)]
            s = env.reset(seed=cfg.seed + 1000 + 7919 * restart + ep)
            ep_ret = 0.0
            while s is not None:
                a = agent.explore(s, sigma)
                s2, r, done = env.step(a)
                agent.replay.push(s, a, r, s2, done)
                ep_ret += r
                s = s2
                steps += 1
                if steps % cfg.update_every == 0 and agent.replay.n >= cfg.batch:
                    agent.update()
                    sigma = max(cfg.sigma_min, sigma * cfg.sigma_decay)
                    if agent.updates in snap_at:
                        snapshots.append({k: v.copy() for k, v in agent.actor.items()})
                    if agent.updates >= cfg.iters:
                        break
            episode_returns.append(ep_ret)
            ep += 1
            if ep > 200:  # safety bound
                break
        snapshots.append({k: v.copy() for k, v in agent.actor.items()})
        total_updates += agent.updates
        total_eps += ep

    # Validation-based selection (DESIGN.md substitutions): the paper trains
    # for hours; at our scale short DDPG runs can drift below the heuristic
    # warm start, so the final policy is the candidate — mid-training
    # snapshots, final actor, or the initialisation — with the lowest mean
    # relative error on a held-out stream from the same training graph.
    val_edges = generate(dataset, scale=cfg.scale, seed_offset=7)
    val_stream = make_stream(
        val_edges, scenario, alpha=cfg.alpha, beta_m=cfg.beta_m,
        beta_l=cfg.beta_l, seed=cfg.seed + 997,
    )
    from ..exact.incremental import truth_trajectory

    _, val_truth = truth_trajectory(val_stream, pattern, 10**9)
    candidates = [heuristic_init_params(pattern)] if cfg.warm_start else []
    candidates += snapshots
    scores = [
        _validate(params, val_stream, pattern, m_for(val_stream), variant, float(val_truth[-1]))
        for params in candidates
    ]
    best = int(np.argmin(scores))
    policy = LearnedPolicy(candidates[best], pattern, variant)
    info = {
        "train_time_s": time.perf_counter() - t0,
        "episodes": total_eps,
        "updates": total_updates,
        "episode_returns": episode_returns,
        "val_scores": [float(s) for s in scores],
        "selected": best,
    }
    return policy, info


def _validate(
    params: dict[str, np.ndarray],
    stream: np.ndarray,
    pattern: str,
    M: int,
    variant: str,
    target: float,
    n_runs: int = 4,
) -> float:
    """Mean relative error of WSD with this actor over a validation stream."""
    from ..core.wsd import WSD

    wfn = LearnedPolicy(params, pattern, variant).as_weight_fn()
    ops = stream["op"].tolist()
    us = stream["u"].tolist()
    vs = stream["v"].tolist()
    errs = []
    for s in range(n_runs):
        smp = WSD(M, pattern, wfn, seed=5000 + s)
        proc = smp.process
        for o, u, v in zip(ops, us, vs):
            proc(o, u, v)
        errs.append(abs(smp.estimate - target) / max(1.0, abs(target)))
    return float(np.mean(errs))


def policy_path(cache_dir: str | Path, dataset: str, scenario: str, pattern: str, variant: str) -> Path:
    return Path(cache_dir) / f"{dataset}_{scenario}_{pattern}_{variant}.json"


def get_or_train_policy(
    cache_dir: str | Path,
    dataset: str,
    scenario: str,
    pattern: str,
    cfg: TrainConfig | None = None,
    variant: str = "max",
) -> tuple[LearnedPolicy, dict]:
    """Load a cached policy or train and cache one. ``info['train_time_s']``
    is stored in the same file so Tables IV/XI can report cached timings.

    A cache entry that cannot be read, or holds another pattern or variant,
    raises ``ValueError`` naming the file: retraining it silently would
    change the published tables."""
    path = policy_path(cache_dir, dataset, scenario, pattern, variant)
    if path.exists():
        policy, info = LearnedPolicy.load(path)
        if (policy.pattern, policy.variant) != (pattern, variant):
            raise ValueError(
                f"policy file {path} holds a {policy.pattern}/{policy.variant} policy, "
                f"not {pattern}/{variant}"
            )
        return policy, {**info, "cached": True}
    policy, info = train_policy(dataset, scenario, pattern, cfg, variant)
    policy.save(path, {k: v for k, v in info.items() if k != "episode_returns"})
    return policy, {**info, "cached": False}
