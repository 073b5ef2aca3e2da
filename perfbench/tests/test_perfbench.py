"""Tests of the benchmark itself: tracer arithmetic and binding, workload
determinism, the output checker, and the metric list's limits.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import re
import sys
import types
from pathlib import Path

import pytest

import checks
import metrics
import workloads
from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def child():
        clock.now += 0.004

    traced_child = tracer.wrap("estimation.build_hankel", child)

    def parent():
        clock.now += 0.003
        traced_child()
        clock.now += 0.003

    tracer.wrap("estimation.solve_lpc", parent)()
    assert tracer.spans["estimation.solve_lpc"].self_s == \
        pytest.approx(0.006)
    assert tracer.spans["estimation.build_hankel"].self_s == \
        pytest.approx(0.004)
    assert tracer.spans["estimation.solve_lpc"].calls == 1


def test_failures_are_counted_by_class_and_reraised():
    tracer = Tracer(clock=FakeClock())

    class InsufficientSignalRoots(Exception):
        pass

    def fails():
        raise InsufficientSignalRoots("no roots")

    with pytest.raises(InsufficientSignalRoots):
        tracer.wrap("estimation.estimate_doa", fails)()
    assert tracer.spans["estimation.estimate_doa"].failed == \
        {"InsufficientSignalRoots": 1}


def test_install_wraps_every_binding_and_restores():
    from rydberg_doa import cli, estimation, experiments

    original = estimation.estimate_doa
    with Tracer() as tracer:
        assert experiments.estimate_doa is estimation.estimate_doa
        assert cli.estimate_doa is estimation.estimate_doa
        assert estimation.estimate_doa is not original
        assert tracer.absent == []
    assert estimation.estimate_doa is original
    assert experiments.estimate_doa is original


def test_absent_functions_are_reported_not_raised(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    est = types.ModuleType("fakepkg.estimation")
    est.solve_lpc = lambda: "ok"
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.estimation", est)
    tracer = Tracer()
    tracer.install("fakepkg")
    try:
        assert est.solve_lpc() == "ok"
    finally:
        tracer.uninstall()
    assert "estimation.solve_lpc" not in tracer.absent
    assert "estimation.estimate_doa" in tracer.absent
    assert tracer.spans["estimation.solve_lpc"].calls == 1
    assert sum(len(v) for v in TRACED.values()) == len(tracer.absent) + 1


def _configs(workload, seed, tmp_path, monkeypatch):
    """Configs and argv of a run, written under a relative work dir."""
    tmp_path.mkdir()
    monkeypatch.chdir(tmp_path)
    passes = workloads.generate(workload, seed, 1, "work")
    texts = [p.read_text() for p in sorted(Path("work").rglob("*.json"))]
    return [[c.argv() for c in calls] for calls in passes], texts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload, tmp_path,
                                               monkeypatch):
    argv_a, cfg_a = _configs(workload, 5, tmp_path / "a", monkeypatch)
    argv_b, cfg_b = _configs(workload, 5, tmp_path / "b", monkeypatch)
    _, cfg_c = _configs(workload, 6, tmp_path / "c", monkeypatch)
    assert cfg_a == cfg_b
    assert argv_a == argv_b
    assert cfg_a != cfg_c
    n_calls = sum(len(p) for p in argv_a)
    assert n_calls >= workloads.MIN_CALLS


def test_generator_never_passes_threads(tmp_path, monkeypatch):
    for workload in workloads.WORKLOADS:
        argvs, _ = _configs(workload, 1, tmp_path / workload, monkeypatch)
        assert not any("--threads" in a for p in argvs for a in p)


@pytest.fixture(scope="module")
def snr_sweep(tmp_path_factory):
    """One fig4-shaped sweep call through the CLI, at 40 dB, where the
    close pair has both failures and a finite RMSE."""
    from rydberg_doa import cli

    tmp = tmp_path_factory.mktemp("sweep")
    doc = {
        "scene": {"carrier_freq_hz": 2.03e9,
                  "lo": {"ratio_to_signals": 20, "angle_deg": 90},
                  "signals": [{"amplitude_v_per_m": 1e-6,
                               "angle_deg": 15}]},
        "geometry": {"cell_length_wavelengths": 4},
        "run": {"trials": 100, "base_seed": 11,
                "output_dir": str(tmp / "out")},
        "sweep": {"axis": "snr_db", "values": [40]},
    }
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
    path = tmp / "out" / "snr_sweep_close_pair.csv"
    rows = checks.read_sweep_csv(path)
    assert 0 < rows[0]["failures"] < rows[0]["trials"]
    return path, cfg


def _rewrite(path, tmp_path, column, change):
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[column] = change(fields[column])
    out = tmp_path / path.name
    out.write_text("\n".join([lines[0], ",".join(fields)]) + "\n")
    return out


def test_checker_accepts_the_sweep_as_written(snr_sweep):
    path, cfg = snr_sweep
    row = checks.read_sweep_csv(path)[0]
    assert checks.recompute_problems(path, row, cfg, 2, 0) == []


def test_checker_flags_failure_count_off_by_one(snr_sweep, tmp_path):
    path, cfg = snr_sweep
    bad = _rewrite(path, tmp_path, 4, lambda v: str(int(v) + 1))
    row = checks.read_sweep_csv(bad)[0]
    assert checks.recompute_problems(bad, row, cfg, 2, 0)


def test_checker_flags_rmse_off_by_one_in_a_million(snr_sweep, tmp_path):
    path, cfg = snr_sweep
    bad = _rewrite(path, tmp_path, 1,
                   lambda v: repr(float(v) * (1 + 1e-6)))
    row = checks.read_sweep_csv(bad)[0]
    assert checks.recompute_problems(bad, row, cfg, 2, 0)


def test_checker_flags_more_failures_than_trials(snr_sweep, tmp_path):
    path, _ = snr_sweep
    bad = _rewrite(path, tmp_path, 4, lambda v: "101")
    rows = checks.read_sweep_csv(bad)
    assert checks.sweep_row_problems(bad, rows, [40], 100)


def test_metric_names_and_limits():
    e2e = [m[0] for m in metrics.END_TO_END]
    layer = [m[0] for m in metrics.PER_LAYER]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for name in e2e + layer:
        assert NAME.fullmatch(name), name
    assert all(0 < m[3] <= 0.25 for m in metrics.END_TO_END)
    assert ("setup_s", "s", "lower") == metrics.END_TO_END[0][:3]


def test_benchmark_json_matches_the_metric_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"]
             if m["name"] == "setup_s")
