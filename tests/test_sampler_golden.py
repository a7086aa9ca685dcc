"""Golden gate for every sampling kernel: estimates for fixed seeds.

Pins the estimate trajectory (TEST-config checkpoints, the last one being
the final estimate) of each algorithm × pattern × deletion scenario on one
TEST-scale dataset, for two trial seeds, to the values committed in
``sampler_golden.json``. Comparison is exact (``==``): a refactor of a
kernel must not change a single estimate. Checkpoints, not just finals,
because an estimate can return to 0 at the end of a stream.

Two departures from the TEST config, both for coverage: the massive-deletion
stream uses ``alpha=3e-3, beta_m=0.5`` because the TEST ``alpha`` yields no
deletion event on a stream this short, and ``M = 200`` (12.6% of the edges)
because at the TEST budget of 5% most 4-clique runs never hold an instance
and estimate 0 throughout.

Regenerate (only at a commit whose estimates are known to be right)::

    PYTHONPATH=src python tests/test_sampler_golden.py
"""
import json
from pathlib import Path

import pytest

from repro.core.runner import run_trial
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.harness.config import TEST
from repro.harness.factory import ALGOS_DYNAMIC, make_sampler
from repro.rl.policy import heuristic_init_params

GOLDEN = Path(__file__).with_name("sampler_golden.json")
DATASET = "soc-TX"
M = 200
SEEDS = (0, 1)
PATTERNS = ("wedge", "triangle", "4clique")
STREAM_ARGS = {
    "insertion-only": {},
    "light": {"beta_l": TEST.beta_l},
    "massive": {"alpha": 3e-3, "beta_m": 0.5},
}
ALGOS = {
    "insertion-only": ["GPS", *ALGOS_DYNAMIC],
    "light": ALGOS_DYNAMIC,
    "massive": ALGOS_DYNAMIC,
}
CASES = [
    (scenario, pattern, algo)
    for scenario, algos in ALGOS.items()
    for pattern in PATTERNS
    for algo in algos
]


def _key(scenario: str, pattern: str, algo: str, seed: int) -> str:
    return f"{scenario}/{pattern}/{algo}/{seed}"


def _streams() -> dict:
    edges = generate(DATASET, scale=TEST.scale)
    return {
        sc: make_stream(edges, sc, seed=TEST.stream_seed, **kw)
        for sc, kw in STREAM_ARGS.items()
    }


def _trajectory(stream, algo: str, pattern: str, seed: int) -> list[float]:
    policy = None
    if algo == "WSD-L":
        pol = heuristic_init_params(pattern)
        policy = {"W": pol["W"], "b": pol["b"], "pattern": pattern, "variant": "max"}
    sampler = make_sampler(algo, M, pattern, seed, policy=policy)
    return run_trial(stream, sampler, TEST.ckpt_every(len(stream)))["est"].tolist()


@pytest.fixture(scope="module")
def setting():
    return _streams(), json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("scenario,pattern,algo", CASES)
def test_estimates_match_golden(setting, scenario, pattern, algo):
    streams, golden = setting
    assert (golden["dataset"], golden["M"]) == (DATASET, M)
    for seed in SEEDS:
        got = _trajectory(streams[scenario], algo, pattern, seed)
        assert got == golden["trajectories"][_key(scenario, pattern, algo, seed)]


def test_massive_stream_has_deletions(setting):
    streams, _ = setting
    assert (streams["massive"]["op"] < 0).sum() > 0


if __name__ == "__main__":
    streams = _streams()
    trajectories = {
        _key(sc, p, a, s): _trajectory(streams[sc], a, p, s)
        for sc, p, a in CASES
        for s in SEEDS
    }
    GOLDEN.write_text(
        json.dumps({"dataset": DATASET, "M": M, "trajectories": trajectories}, indent=1) + "\n"
    )
    print(f"wrote {len(trajectories)} trajectories to {GOLDEN}")
