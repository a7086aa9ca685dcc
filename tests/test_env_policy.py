"""MDP environment (Eqs. 19–26), learned-policy and policy-cache tests."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.patterns import PATTERN_EDGES
from repro.core.weights import heuristic_weight
from repro.core.wsd import WSD
from repro.graphs.generators import generate
from repro.graphs.streams import make_stream
from repro.rl.env import WSDEnv
from repro.rl.policy import LearnedPolicy, heuristic_init_params
from repro.rl import train
from repro.rl.train import TrainConfig, get_or_train_policy, policy_path, train_policy


@pytest.fixture(scope="module")
def stream():
    edges = generate("soc-TX", scale=0.06)
    return make_stream(edges, "light", beta_l=0.2, seed=1)


def test_env_state_shape(stream):
    env = WSDEnv(stream, "triangle", 50, seed=0)
    s = env.reset()
    assert s is not None and s.shape == (6,)
    assert env.state_dim == 6


def test_env_steps_through_all_insertions(stream):
    env = WSDEnv(stream, "triangle", 50, seed=0)
    s = env.reset()
    n = 0
    while s is not None:
        s, r, done = env.step(1.0)
        n += 1
    assert done
    assert n == int((stream["op"] > 0).sum())


def test_env_rewards_telescope(stream):
    """Σ r_k = ε(t_1) − ε(t_N) = −ε(t_N) with relative error (Eq. 26
    adapted; ε(t_1) = 0 because both estimate and truth start at 0)."""
    env = WSDEnv(stream, "triangle", 50, seed=3)
    s = env.reset()
    total = 0.0
    first_eps = env._rel_error()
    while s is not None:
        s, r, done = env.step(2.0)
        total += r
    final_eps = env._rel_error()
    assert total == pytest.approx(first_eps - final_eps, abs=1e-9)


def test_env_step_without_reset_raises(stream):
    env = WSDEnv(stream, "triangle", 50)
    with pytest.raises(RuntimeError):
        env.step(1.0)


def test_env_matches_plain_wsd_with_constant_weight(stream):
    """Driving WSD through the env with weight w must equal running WSD with
    a constant weight function — same estimates, same reservoir."""
    env = WSDEnv(stream, "triangle", 60, seed=7)
    s = env.reset()
    while s is not None:
        s, _, _ = env.step(4.0)
    ref = WSD(60, "triangle", lambda ctx: 4.0, seed=7)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        ref.process(op, u, v)
    assert env.sampler.estimate == pytest.approx(ref.estimate)
    assert set(env.sampler.res.records) == set(ref.res.records)


def test_policy_heuristic_init_equals_wsdh(stream):
    """Warm-started WSD-L is *exactly* WSD-H."""
    pol = LearnedPolicy(heuristic_init_params("triangle"), "triangle")
    a = WSD(60, "triangle", pol.as_weight_fn(), seed=2)
    b = WSD(60, "triangle", heuristic_weight, seed=2)
    for op, u, v in zip(stream["op"].tolist(), stream["u"].tolist(), stream["v"].tolist()):
        a.process(op, u, v)
        b.process(op, u, v)
    assert a.estimate == pytest.approx(b.estimate)


def test_policy_save_load_roundtrip(tmp_path):
    pol = LearnedPolicy(heuristic_init_params("wedge"), "wedge", variant="avg")
    p = tmp_path / "pol.json"
    pol.save(p, {"selected": 2})
    back, info = LearnedPolicy.load(p)
    assert back.pattern == "wedge" and back.variant == "avg"
    assert info == {"selected": 2}
    np.testing.assert_array_equal(back.params["W"], pol.params["W"])
    np.testing.assert_array_equal(back.params["b"], pol.params["b"])


def test_policy_shape_validation():
    with pytest.raises(ValueError):
        LearnedPolicy({"W": np.zeros((1, 4)), "b": np.zeros(1)}, "triangle")


def test_policy_output_positive():
    pol = LearnedPolicy({"W": -np.ones((1, 6)), "b": np.zeros(1)}, "triangle")
    assert pol(np.ones(6)) == 1.0  # ReLU clamps, +1 keeps weights positive


TINY = TrainConfig(iters=30, n_streams=1, scale=0.05, M=40, batch=16, update_every=2)


def test_train_policy_runs_and_returns_info():
    pol, info = train_policy("soc-TX", "light", "triangle", TINY)
    assert info["updates"] == 30
    assert info["train_time_s"] > 0
    assert pol.params["W"].shape == (1, 6)


def test_train_policy_wedge_dimensions():
    pol, _ = train_policy("cit-HE", "light", "wedge", TINY)
    assert pol.params["W"].shape == (1, 5)


def test_get_or_train_policy_caches(tmp_path):
    p1, i1 = get_or_train_policy(tmp_path, "soc-TX", "light", "triangle", TINY)
    assert not i1["cached"]
    p2, i2 = get_or_train_policy(tmp_path, "soc-TX", "light", "triangle", TINY)
    assert i2["cached"]
    np.testing.assert_array_equal(p1.params["W"], p2.params["W"])
    assert i2["train_time_s"] is not None


COMMITTED = sorted((Path(__file__).resolve().parent.parent / "results" / "policies").iterdir())


def test_committed_cache_is_one_json_per_policy():
    assert len(COMMITTED) == 37
    assert {p.suffix for p in COMMITTED} == {".json"}


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
def test_committed_policy_loads(path):
    policy, info = LearnedPolicy.load(path)
    assert path.stem.endswith(f"_{policy.pattern}_{policy.variant}")
    assert policy.params["W"].shape == (1, PATTERN_EDGES[policy.pattern] + 3)
    assert info["train_time_s"] > 0 and 0 <= info["selected"] < len(info["val_scores"])


TRIANGLE = {"pattern": "triangle", "variant": "max", "W": [[9.0, 0, 0, 0, 0, 0]], "b": [0.0], "info": {}}
BAD_ENTRIES = {
    "corrupt": json.dumps(TRIANGLE)[:40],
    "wrong-shape": json.dumps({**TRIANGLE, "W": [[9.0, 0, 0, 0, 0]]}),
    "other-variant": json.dumps({**TRIANGLE, "variant": "avg"}),
    "other-pattern": json.dumps({**TRIANGLE, "pattern": "wedge", "W": [[9.0, 0, 0, 0, 0]]}),
}


@pytest.mark.parametrize("kind", BAD_ENTRIES)
def test_bad_cache_entry_raises_naming_file(tmp_path, monkeypatch, kind):
    path = policy_path(tmp_path, "soc-TX", "light", "triangle", "max")
    path.write_text(BAD_ENTRIES[kind])

    def no_training(*a, **k):
        raise AssertionError("a bad cache entry must not be retrained")

    monkeypatch.setattr(train, "train_policy", no_training)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        get_or_train_policy(tmp_path, "soc-TX", "light", "triangle", TINY)
