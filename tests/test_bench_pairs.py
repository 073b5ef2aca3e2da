"""scripts/bench_pairs.py's command line, without running a benchmark."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_help_exits_0_and_runs_nothing(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(subprocess, "run",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        module.main(["HEAD", "--workload", "mc_snr", "--seeds", "1-2",
                     "--out", str(tmp_path / "out"), "--help"])
    assert exc.value.code == 0
    assert "--seeds" in capsys.readouterr().out
    assert calls == [] and list(tmp_path.iterdir()) == []
