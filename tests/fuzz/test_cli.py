"""CLI smoke: ``python -m repro.fuzz`` end to end in subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.__main__ import main

CORPUS = Path(__file__).parent / "corpus"
SRC = Path(__file__).resolve().parents[2] / "src"


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.fuzz", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


class TestCli:
    def test_clean_sweep_exits_zero_and_writes_artifact(self, tmp_path):
        proc = _run(["--seed", "0", "--budget", "15", "--shards", "1",
                     "--no-cache", "--json", "out.json"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "fuzz sweep: 15 checks" in proc.stdout
        assert "TOTAL" in proc.stdout
        artifact = json.loads((tmp_path / "out.json").read_text())
        assert artifact["benchmark"] == "fuzz"
        assert artifact["summary"]["totals"]["checks"] == 15
        assert artifact["summary"]["totals"]["disagreements"] == 0
        assert artifact["disagreements"] == []

    def test_cache_warms_across_invocations(self, tmp_path):
        cold = _run(["--seed", "1", "--budget", "12", "--shards", "1",
                     "--cache-dir", "cache", "--json", "a.json"], tmp_path)
        warm = _run(["--seed", "1", "--budget", "12", "--shards", "1",
                     "--cache-dir", "cache", "--json", "b.json"], tmp_path)
        assert cold.returncode == warm.returncode == 0
        artifact = json.loads((tmp_path / "b.json").read_text())
        assert artifact["cache_hits"] == 12

    def test_injected_fault_exits_nonzero_with_repro(self, tmp_path):
        proc = _run(["--seed", "0", "--budget", "30", "--shards", "1",
                     "--kinds", "formula", "--no-cache",
                     "--inject", "conjunction", "--artifacts", "arts",
                     "--json", "out.json"], tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DISAGREEMENT" in proc.stderr
        assert "repro:" in proc.stderr
        scripts = list((tmp_path / "arts").glob("*.repro.py"))
        assert scripts
        artifact = json.loads((tmp_path / "out.json").read_text())
        assert artifact["disagreements"]
        for entry in artifact["disagreements"]:
            assert entry["size_after"] <= 5

    def test_replay_mode_checks_the_corpus(self, tmp_path):
        proc = _run(["--replay", str(CORPUS), "--json", "replay.json"],
                    tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "corpus replay" in proc.stdout
        artifact = json.loads((tmp_path / "replay.json").read_text())
        assert artifact["summary"]["totals"]["checks"] > 0
        assert artifact["summary"]["totals"]["disagreements"] == 0

    def test_kinds_filter_restricts_the_sweep(self, tmp_path):
        proc = _run(["--seed", "2", "--budget", "10", "--shards", "1",
                     "--kinds", "protocol", "--no-cache",
                     "--json", "out.json"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        artifact = json.loads((tmp_path / "out.json").read_text())
        kinds = {cell["kind"] for cell in artifact["summary"]["cells"]}
        assert kinds == {"protocol"}

    def test_sharded_smoke(self, tmp_path):
        proc = _run(["--seed", "3", "--budget", "12", "--shards", "2",
                     "--no-cache", "--json", "out.json"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestUsageErrors:
    """Arguments the sweep rejects exit 2 (usage error) before any work;
    exit 1 stays reserved for disagreements and crashes."""

    @pytest.mark.parametrize("args, message", [
        (["--budget", "0"], "budget must be positive"),
        (["--kinds", "bogus"], "unknown kind"),
        (["--kinds", ","], "at least one problem kind"),
        (["--inject", "nope"], "unknown fault"),
        (["--replay", "/nonexistent"], "no corpus entries"),
        (["--replay", str(CORPUS), "--inject", "nope"], "unknown fault"),
    ])
    def test_rejected_argument_exits_two(self, args, message, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*args, "--no-cache", "--json", "out.json"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()
