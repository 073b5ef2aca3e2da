"""scripts/output_bytes.py: normalized CLI outputs of the bundled configs."""

import filecmp
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_bytes.py"


def run_script(*args, cwd):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tree_files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file())


def test_two_runs_give_identical_trees(tmp_path):
    for name in ("a", "b"):
        done = run_script("--out", str(tmp_path / name), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
    files = tree_files(tmp_path / "a")
    assert files == tree_files(tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert (mismatch, errors) == ([], [])
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert sorted({f.split("/")[0] for f in files}) == configs
    assert "fig3c/sweep/lo_ratio_sweep.csv" in files
    assert "fig4/estimate/estimation.json" in files
    manifest = (tmp_path / "a" / "fig3c" / "sweep" / "manifest.json")
    text = manifest.read_text()
    assert '"wall_time_s": "<wall>"' in text
    assert '"<out>/fig3c/sweep/lo_ratio_sweep.csv"' in text
    assert str(tmp_path) not in text


def test_help_exits_0_and_writes_nothing(tmp_path):
    done = run_script("--help", "--out", str(tmp_path / "out"),
                      cwd=tmp_path)
    assert done.returncode == 0
    assert "--tree" in done.stdout
    assert list(tmp_path.iterdir()) == []
