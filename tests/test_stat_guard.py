"""scripts/stat_guard.py: its arithmetic, and one tree against itself."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_guard():
    spec = importlib.util.spec_from_file_location(
        "stat_guard", ROOT / "scripts" / "stat_guard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_proportion_z_and_threshold():
    guard = load_guard()
    # pooled rate 0.2: se = sqrt(0.2 * 0.8 * 2 / 100)
    assert guard.two_proportion_z(10, 100, 30, 100) == pytest.approx(
        0.2 / math.sqrt(0.0032), rel=1e-12)
    assert guard.two_proportion_z(30, 100, 10, 100) < 0
    for f in (0, 100):
        assert guard.two_proportion_z(f, 100, f, 100) == 0.0
    assert guard.two_proportion_z(0, 0, 0, 0) == 0.0
    assert guard.threshold(1) == pytest.approx(2.5758, abs=1e-4)
    assert guard.threshold(140) > guard.threshold(7) > guard.threshold(1)
    assert guard.base_seeds(3) == [7, 1007, 2007]


def fig4_config(tmp_path, name="fig4.json", **geometry):
    """configs/fig4.json at 10 trials a cell, with these geometry keys."""
    doc = json.loads((ROOT / "configs" / "fig4.json").read_text())
    doc["run"]["trials"] = 10
    doc["geometry"].update(geometry)
    config = tmp_path / name
    config.write_text(json.dumps(doc))
    return config, doc


def test_both_sides_must_run_the_same_cells():
    guard = load_guard()
    run = [(0.01, 10, 0)]
    one, two = {("a.csv", "1"): run}, {("a.csv", "1"): run,
                                       ("a.csv", "2"): run}
    for parent, change, message in ((one, two, "on the change only"),
                                    (two, one, "ran 1 times on the parent "
                                               "and 0 on the change")):
        with pytest.raises(SystemExit, match=message):
            guard.compare(parent, change)


def test_one_tree_against_itself_flags_no_cell(tmp_path, capsys):
    # the two-config mode, one config against itself on this tree
    guard = load_guard()
    config, doc = fig4_config(tmp_path)
    out = tmp_path / "out"
    assert guard.main(["--config", str(config), "--versus", str(config),
                       "--seeds", "2", "--out", str(out)]) == 0
    seeds = guard.base_seeds(2)
    parent = guard.read_cells(out / "parent-runs", seeds)
    change = guard.read_cells(out / "change-runs", seeds)
    assert len(parent) == 3 * len(doc["sweep"]["values"])
    for key, runs in parent.items():
        assert [r[1:] for r in runs] == [r[1:] for r in change[key]]
        assert all(r[1] == 10 for r in runs)
    table = capsys.readouterr().out
    assert "FLAGGED" not in table
    rows = guard.compare(parent, change)
    assert all(r["z"] == 0 and r["flips"] == 0 for r in rows)


def test_help_exits_0_and_builds_nothing(tmp_path, monkeypatch, capsys):
    guard = load_guard()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        guard.main(["HEAD", "--config", "configs/fig4.json", "--seeds", "2",
                    "--out", str(tmp_path / "out"), "--help"])
    assert exc.value.code == 0
    assert "--seeds" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_a_config_that_moves_the_failure_rate_is_flagged(tmp_path, capsys):
    # a one-wavelength cell has 4 channels, too few for the pairs' order
    # 4, so every pair trial fails; the wide pair fails at most 2 of 20
    # on the bundled cell
    guard = load_guard()
    config, doc = fig4_config(tmp_path)
    moved, _ = fig4_config(tmp_path, "moved.json",
                           cell_length_wavelengths=1)
    out = tmp_path / "out"
    assert guard.main(["--config", str(config), "--versus", str(moved),
                       "--seeds", "2", "--out", str(out)]) == 1
    rows = capsys.readouterr().out.splitlines()
    wide = [line for line in rows if "snr_sweep_wide_pair.csv" in line]
    assert len(wide) == len(doc["sweep"]["values"])
    assert all("| 20/20 |" in line and "FLAGGED" in line for line in wide)
    assert not any("FLAGGED" in line for line in rows
                   if "single_15" in line)


@pytest.mark.parametrize("argv", [
    ["HEAD", "--versus", "configs/fig4.json"], []],
    ids=["both", "neither"])
def test_needs_a_revision_or_a_second_config(tmp_path, capsys, argv):
    guard = load_guard()
    with pytest.raises(SystemExit) as exc:
        guard.main(argv + ["--config", "configs/fig4.json", "--seeds", "2",
                           "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "give either PARENT_REV or --versus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
