"""scripts/output_bytes.py: normalized CLI outputs of the bundled configs."""

import filecmp
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from test_golden import RECOMPUTE_RTOL

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_bytes.py"
BLAS = np.show_config(mode="dicts").get(
    "Build Dependencies", {}).get("blas", {})
# A decimal number, signed or not, or a bare nan or inf.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|\b(?:nan|inf)\b")
INTEGER = re.compile(r"[-+]?\d+")


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


@pytest.mark.skipif(not __cpu_features__.get("AVX512_SKX"),
                    reason="numpy dispatches no AVX-512 kernels on this "
                    "CPU, so there are none to turn off")
def test_cpu_dispatch_moves_only_last_digits(tmp_path):
    # numpy's AVX-512 and AVX2 kernels round some ufuncs (exp among them)
    # differently. With AVX-512 off, every file keeps its names, its text
    # between numbers and its integers (trial and failure counts among
    # them); every other number moves by at most RECOMPUTE_RTOL.
    without = {**os.environ,
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import "
         "__cpu_features__ as f; assert not f['AVX512_SKX']"],
        capture_output=True, text=True, env=without, timeout=60)
    assert probe.returncode == 0, probe.stderr
    for name, env in (("on", None), ("off", without)):
        done = run_script("--out", str(tmp_path / name), cwd=tmp_path,
                          env=env)
        assert done.returncode == 0, done.stderr
    files = tree_files(tmp_path / "on")
    assert files == tree_files(tmp_path / "off")
    for name in files:
        on, off = ((tmp_path / tree / name).read_text()
                   for tree in ("on", "off"))
        assert NUMBER.split(on) == NUMBER.split(off), name
        for a, b in zip(NUMBER.findall(on), NUMBER.findall(off)):
            if INTEGER.fullmatch(a) or INTEGER.fullmatch(b):
                assert a == b, f"{name}: {a} vs {b}"
            else:
                assert a == b or math.isclose(
                    float(a), float(b), rel_tol=RECOMPUTE_RTOL,
                    abs_tol=0), f"{name}: {a} vs {b}"


def test_help_exits_0_and_writes_nothing(tmp_path):
    done = run_script("--help", "--out", str(tmp_path / "out"),
                      cwd=tmp_path)
    assert done.returncode == 0
    assert "--tree" in done.stdout
    assert list(tmp_path.iterdir()) == []
