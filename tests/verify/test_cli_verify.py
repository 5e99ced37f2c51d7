"""The ``repro verify`` CLI surface: run, lint, list."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_verify_list_names_everything(capsys):
    assert main(["verify", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("signtest", "engine", "parallel", "chain-rng"):
        assert name in out
    for name in ("suspension-timer", "regulator"):
        assert name in out
    for rule in ("wall-clock", "unseeded-rng", "hash-order"):
        assert rule in out


def test_verify_lint_clean_on_shipped_tree(capsys):
    assert main(["verify", "lint"]) == 0
    assert "lint clean" in capsys.readouterr().out


def test_verify_lint_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nx = time.time()\n", encoding="utf-8")
    assert main(["verify", "lint", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "wall-clock" in captured.out
    assert "1 determinism finding" in captured.err


def test_verify_run_single_seed(capsys):
    assert main(["verify", "run", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "verification ok" in out
    assert "oracle signtest" in out
    assert "invariants regulator" in out


def test_verify_run_json_output(capsys):
    assert main(["verify", "run", "--seeds", "1", "--json"]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["ok"] is True
    assert payload["seeds"] == [1]
    assert payload["total_cases"] > 0
    assert {entry["oracle"] for entry in payload["oracles"]} == {
        "signtest",
        "engine",
        "parallel",
        "chain-rng",
    }
    assert all(entry["mismatches"] == [] for entry in payload["oracles"])
    assert all(entry["violations"] == [] for entry in payload["drives"])


def test_verify_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["verify"])
