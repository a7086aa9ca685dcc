"""Smoke tests for every entry point at tiny scale: each entry of the table
registry through ``run_table``, the ``jobs/run_tables.py`` CLI and the
Structured Streaming demo."""
import importlib.util
from pathlib import Path

import pytest

from repro.harness.config import BENCH
from repro.harness.tables import TABLES, run_table
from tests.test_tables import CFG, TRAIN

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"job_{stem}", JOBS / f"{stem}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("stem", sorted(p.stem for p in JOBS.glob("*.py")))
def test_job_importable_with_main(stem):
    assert callable(_load(stem).main)


def test_registry_holds_the_paper_tables():
    assert list(TABLES) == [f"table{i:02d}" for i in range(1, 14)]


def test_common_config_override():
    cli = _load("run_tables")
    args = cli.make_parser("x").parse_args(["--scale", "0.11", "--n-runs", "4", "--m-ratio", "0.07"])
    assert cli.config_from(args) == BENCH.with_(scale=0.11, n_runs=4, m_ratio=0.07)
    assert cli.config_from(cli.make_parser("x").parse_args([])) == BENCH


@pytest.fixture(scope="module")
def policy_dir(tmp_path_factory):
    """One policy cache for every table, so each tiny policy trains once."""
    return tmp_path_factory.mktemp("policies")


@pytest.mark.parametrize("name", TABLES)
def test_run_table(spark, policy_dir, tmp_path, name):
    df = run_table(name, spark, CFG, policy_dir=policy_dir, train_cfg=TRAIN, results_dir=tmp_path)
    assert len(df) > 0
    written = {p.name for p in tmp_path.iterdir()}
    for artifact in ["tidy", *TABLES[name].metrics]:
        assert {f"{name}_{artifact}.json", f"{name}_{artifact}.md"} <= written


def test_table01_job_runs(spark, tmp_path, monkeypatch, capsys):
    cli = _load("run_tables")
    monkeypatch.setattr(cli, "RESULTS_DIR", tmp_path)
    cli.main(["table01", "--scale", "0.03"])
    assert "Table I" in capsys.readouterr().out
    assert (tmp_path / "table01_tidy.md").exists()


def test_run_tables_rejects_unknown_name():
    with pytest.raises(SystemExit):
        _load("run_tables").main(["table99"])


def test_streaming_demo_runs(spark, capsys):
    _load("streaming_demo").main(["--scale", "0.03", "--windows", "3"])
    out = capsys.readouterr().out
    assert "estimate" in out and "rel_err_%" in out
