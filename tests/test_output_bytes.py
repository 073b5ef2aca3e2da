"""scripts/output_bytes.py: normalized CLI outputs of the bundled configs."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_bytes.py"
BLAS = np.show_config(mode="dicts").get(
    "Build Dependencies", {}).get("blas", {})


def run_script(*args, cwd, env=None):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          env=env)


def tree_files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file())


def assert_identical_trees(a: Path, b: Path) -> list[str]:
    files = tree_files(a)
    assert files == tree_files(b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert (mismatch, errors) == ([], [])
    return files


def test_two_runs_give_identical_trees(tmp_path):
    for name in ("a", "b"):
        done = run_script("--out", str(tmp_path / name), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
    files = assert_identical_trees(tmp_path / "a", tmp_path / "b")
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert sorted({f.split("/")[0] for f in files}) == configs
    assert "fig3c/sweep/lo_ratio_sweep.csv" in files
    assert "fig4/estimate/estimation.json" in files
    manifest = (tmp_path / "a" / "fig3c" / "sweep" / "manifest.json")
    text = manifest.read_text()
    assert '"wall_time_s": "<wall>"' in text
    assert '"<out>/fig3c/sweep/lo_ratio_sweep.csv"' in text
    assert str(tmp_path) not in text


@pytest.mark.skipif(
    "openblas" not in BLAS.get("name", "").lower()
    or "DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
    reason="OPENBLAS_CORETYPE picks a kernel only in an OpenBLAS built "
           "with DYNAMIC_ARCH; this numpy has another BLAS build")
def test_another_openblas_kernel_gives_identical_trees(tmp_path):
    default = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
    for name, env in (("default", default),
                      ("prescott", {**default,
                                    "OPENBLAS_CORETYPE": "Prescott"})):
        done = run_script("--out", str(tmp_path / name), cwd=tmp_path,
                          env=env)
        assert done.returncode == 0, done.stderr
    assert_identical_trees(tmp_path / "default", tmp_path / "prescott")


def test_help_exits_0_and_writes_nothing(tmp_path):
    done = run_script("--help", "--out", str(tmp_path / "out"),
                      cwd=tmp_path)
    assert done.returncode == 0
    assert "--tree" in done.stdout
    assert list(tmp_path.iterdir()) == []
