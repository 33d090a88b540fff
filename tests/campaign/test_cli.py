"""CLI: ``python -m repro.campaign`` argument handling."""

import pytest

from repro.campaign.__main__ import main


def test_nonpositive_instances_is_a_usage_error(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--instances", "0", "--no-cache", "--json", "out.json"])
    assert exit_info.value.code == 2
    assert "instances must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
