"""Regression of every bundled figure sweep against committed outputs.

tests/golden holds one CSV per file that `scripts/run_figures.py` writes,
named <figure>_<file>. Every file is the byte-exact output of the
batched Monte Carlo estimator and the numpy-only runtime; regenerate them
with `python scripts/run_figures.py --out DIR` and copy each DIR/<figure>/
<file> here as <figure>_<file>, only when a change is meant to alter the
output. Headers, the first (key) column, empty fields and
integer fields such as trial and failure counts must match exactly; every
other numeric field within RECOMPUTE_RTOL.

The determinism contract is byte-exact output for a fixed numpy and CPU
dispatch, whatever OpenBLAS kernel runs: tests/test_output_bytes.py
checks every command's output byte for byte under
OPENBLAS_CORETYPE=Prescott. numpy's CPU dispatch moves only the last
digits, within RECOMPUTE_RTOL: fig3c, the fluorescence pipeline's sweep,
is also compared with numpy's AVX-512 kernels turned off, and
tests/test_output_bytes.py compares every command's output so.
"""

import csv
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from rydberg_doa import cli
from rydberg_doa.config import load_config
from rydberg_doa.experiments import SWEEP_KINDS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RECOMPUTE_RTOL = 1e-9

CASES = {
    "fig2": ("linearization_check.csv",),
    "fig3c": ("lo_ratio_sweep.csv",),
    "fig4": ("snr_sweep_single_15.csv", "snr_sweep_wide_pair.csv",
             "snr_sweep_close_pair.csv"),
    "fig6": ("length_sweep_theta0.csv", "length_sweep_theta30.csv",
             "length_sweep_theta60.csv"),
    "fig7a": ("sampling_demo_sampling_interval.csv",),
    "fig7b": ("sampling_demo_window_width.csv",),
}


def read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) > 1, f"{path} has no rows"
    return rows


def is_exact_field(text):
    return text == "" or text.lstrip("-").isdigit()


def assert_field(got, want, where):
    if is_exact_field(want):
        assert got == want, f"{where}: {got!r} vs {want!r}"
        return
    assert math.isclose(float(got), float(want), rel_tol=RECOMPUTE_RTOL,
                        abs_tol=0), f"{where}: {got} vs {want}"


def test_every_sweep_kind_has_a_golden_figure():
    pairs = set()
    for figure in CASES:
        sweep = load_config(ROOT / "configs" / f"{figure}.json").scenario.sweep
        pairs.add((sweep.axis, sweep.kind))
    assert pairs == {(axis, kind) for axis, kinds in SWEEP_KINDS.items()
                     for kind in kinds}


def test_every_figure_output_has_a_golden_file():
    named = {f"{figure}_{name}" for figure, names in CASES.items()
             for name in names}
    assert named == {path.name for path in GOLDEN.glob("*.csv")}


def assert_matches_golden(out, figure):
    """The sweep CSVs that `sweep` wrote to out against the goldens."""
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(CASES[figure])
    for name in CASES[figure]:
        got = read_rows(out / name)
        want = read_rows(GOLDEN / f"{figure}_{name}")
        assert got[0] == want[0], f"{name} header"
        assert len(got) == len(want), name
        for g, w in zip(got[1:], want[1:]):
            assert len(g) == len(w), f"{figure}/{name} at {w[0]}"
            assert g[0] == w[0], f"{figure}/{name} key {g[0]} vs {w[0]}"
            for column, got_field, want_field in zip(want[0][1:], g[1:],
                                                     w[1:]):
                assert_field(got_field, want_field,
                             f"{figure}/{name} {column} at {w[0]}")


@pytest.mark.parametrize("figure", sorted(CASES))
def test_sweep_matches_golden(tmp_path, figure):
    assert cli.main(["sweep", "--config",
                     str(ROOT / "configs" / f"{figure}.json"),
                     "--out", str(tmp_path)]) == 0
    assert_matches_golden(tmp_path, figure)


@pytest.mark.skipif(not __cpu_features__.get("AVX512_SKX"),
                    reason="numpy dispatches no AVX-512 kernels on this "
                    "CPU, so there are none to turn off")
def test_fluorescence_golden_without_avx512(tmp_path):
    # numpy's AVX-512 and AVX2 kernels round some ufuncs (exp among them)
    # differently; fig3c's fluorescence readout must not depend on which
    # one runs. The setting applies to the child process only.
    code = ("import sys\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "from rydberg_doa import cli\n"
            "assert not __cpu_features__['AVX512_SKX'], 'AVX-512 is on'\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    done = subprocess.run(
        [sys.executable, "-c", code, "sweep", "--config",
         str(ROOT / "configs" / "fig3c.json"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert_matches_golden(tmp_path, "fig3c")


def load_run_figures():
    spec = importlib.util.spec_from_file_location(
        "run_figures", ROOT / "scripts" / "run_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunFigures:
    @pytest.fixture
    def script(self, monkeypatch):
        module = load_run_figures()
        self.sweeps = []
        monkeypatch.setattr(module.cli, "main",
                            lambda argv: self.sweeps.append(argv) or 0)
        return module

    def test_help_exits_0_and_writes_nothing(self, script, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            script.main(["--help", "--out", str(tmp_path / "out")])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out
        assert self.sweeps == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--bogus"], ["fig2"]])
    def test_bad_argument_exits_2_before_any_sweep(self, script, argv):
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2
        assert self.sweeps == []

    def test_every_figure_runs_under_out(self, script, tmp_path):
        assert script.main(["--out", str(tmp_path)]) == 0
        assert self.sweeps == [
            ["sweep", "--config", str(ROOT / "configs" / f"{name}.json"),
             "--out", str(tmp_path / name)] for name in script.FIGURES]
