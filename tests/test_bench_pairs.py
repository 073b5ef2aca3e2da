"""scripts/bench_pairs.py's command line and claim-rule arithmetic,
without running a benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_module():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_help_exits_0_and_runs_nothing(tmp_path, monkeypatch, capsys):
    module = load_module()
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


def test_tally_counts_pairs_by_direction():
    bench = load_module()
    parent = [10, 10, 10, 10]
    change = [9, 11, 10, 8]
    assert bench.tally(parent, change, "lower") == (2, 1, 1)
    assert bench.tally(parent, change, "higher") == (1, 2, 1)
    with pytest.raises(ValueError):
        bench.tally(parent, change[:3], "lower")


# Ten parent runs with quartile spread 1.25 (statistics.quantiles, n = 4):
# q1 = 9.75 and q3 = 11.
PARENT = [9, 10, 11, 10, 12, 9, 11, 10, 10, 11]


@pytest.mark.parametrize("change, holds", [
    # 10 of 10 won, median 10 -> 8: a gap of 2 above the spread of 1.25
    ([x - 2 for x in PARENT], True),
    # 9 won and one tie: ties count for neither side
    ([x - 2 for x in PARENT[:9]] + [PARENT[9]], True),
    # 8 won, 2 lost
    ([x - 2 for x in PARENT[:8]] + [x + 1 for x in PARENT[8:]], False),
    # 10 of 10 won by 1: the median gap of 1 is inside the spread
    ([x - 1 for x in PARENT], False),
])
def test_claim_rule(change, holds):
    bench = load_module()
    assert bench.claim_holds(PARENT, change, "lower") is holds
    mirrored = [-x for x in change]
    assert bench.claim_holds([-x for x in PARENT], mirrored,
                             "higher") is holds


def test_claim_table_reads_run_files(tmp_path):
    # wall_s is won in every pair by more than the spread, call_p50_ms in
    # none; a metric missing from the runs is left out
    bench = load_module()
    paths = {"parent": [], "change": []}
    for i, wall in enumerate(PARENT):
        for side, value in (("parent", wall), ("change", wall - 2)):
            path = tmp_path / f"{side}-{i}.txt"
            metrics = {"wall_s": {"value": value},
                       "call_p50_ms": {"value": 1.0}}
            path.write_text("log line\n" + json.dumps({"metrics": metrics}))
            paths[side].append(path)
    lines = bench.claim_table(paths["parent"], paths["change"]).splitlines()
    assert lines[0].split() == ["metric", "won", "lost", "tied", "claim"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows == {"wall_s": ["10", "0", "0", "holds"],
                    "call_p50_ms": ["0", "0", "10", "not", "met"]}


def test_kind_table_reads_each_side_per_call_kind(tmp_path):
    # sweep_length is faster in every change run, simulate unchanged; a
    # kind only one side ran, or a run without a record, is left out
    bench = load_module()
    paths = {"parent": [], "change": []}
    for i in range(3):
        for side, sweep in (("parent", 2.0 + i), ("change", 1.0 + i)):
            kinds = {"simulate": 1.5, "sweep_length": sweep}
            if side == "parent":
                kinds["check-sampling"] = 0.25
            path = tmp_path / f"{side}-{i}.txt"
            path.write_text("log line\n"
                            + json.dumps({"record": {
                                "call_p50_ms_by_kind": kinds}}) + "\n"
                            + json.dumps({"metrics": {}}) + "\n")
            paths[side].append(path)
    bare = tmp_path / "bare.txt"
    bare.write_text(json.dumps({"metrics": {}}))
    lines = bench.kind_table(paths["parent"] + [bare],
                             paths["change"]).splitlines()
    assert lines[0].split() == ["call", "kind", "parent", "ms", "change",
                                "ms", "change"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows == {"simulate": ["1.5", "1.5", "+0.00%"],
                    "sweep_length": ["3", "2", "-33.33%"]}
