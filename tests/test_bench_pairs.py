"""scripts/bench_pairs.py's command line and claim-rule arithmetic, and
scripts/interleave_pairs.py's command line, ratio arithmetic and package
loading, without running a benchmark."""

import importlib.util
import json
import subprocess
import sys
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


# The layout of a committed BENCH_*.json file, as --record writes it: a
# dict per level, "*" standing for every workload, metric or pair, None
# for a leaf.
SIDE = {"record": dict.fromkeys(("seed", "src_sha256", "nproc", "python",
                                 "numpy", "scipy", "blas", "blas_version")),
        "result": dict.fromkeys(("correct", "metrics"))}
LAYOUT = {
    **dict.fromkeys(("what", "command", "parent_commit", "claimed",
                     "limits")),
    "workloads": {"*": {
        "summary": {"*": dict.fromkeys((
            "better", "parent_q1_median_q3", "change_q1_median_q3",
            "median_change", "pair_change_median", "parent_iqr",
            "change_wins", "ties", "pairs", "claim_holds"))},
        "compare": None, "correct": None,
        "pairs": {"*": {"pair": None, "seed": None, "first": None,
                        "parent": SIDE, "change": SIDE}},
    }},
}

# What each committed file lacks of LAYOUT: the older files were written
# by hand, before --record.
LACKS = {
    "BENCH_11.json": {"workloads.*.summary.*.pair_change_median",
                      "workloads.*.summary.*.claim_holds"},
    "BENCH_12.json": {"workloads.*.summary.*.pair_change_median",
                      "workloads.*.summary.*.claim_holds"},
    "BENCH_23.json": {"workloads.*.summary.*.pair_change_median",
                      "workloads.*.summary.*.claim_holds"},
    "BENCH_24.json": {"workloads.*.summary.*.claim_holds"},
}


def layout_gaps(value, layout=LAYOUT, path="") -> set[str]:
    """The dotted paths of layout's fields that value lacks."""
    gaps = set()
    for key, inner in layout.items():
        if key == "*":
            children = value.values() if isinstance(value, dict) else value
            here = f"{path}*"
        elif key in value:
            children, here = [value[key]], f"{path}{key}"
        else:
            gaps.add(f"{path}{key}")
            continue
        for child in children if inner is not None else ():
            gaps |= layout_gaps(child, inner, f"{here}.")
    return gaps


def stored_runs(workload, metric) -> tuple[list, list]:
    return tuple([pair[side]["result"]["metrics"][metric]["value"]
                  for pair in workload["pairs"]]
                 for side in ("parent", "change"))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_committed_bench_file_layout(path):
    # Every committed file has the layout but the fields LACKS names, and
    # the claim rule holds on its claimed metric's stored runs.
    bench, module = json.loads(path.read_text()), load_module()
    assert layout_gaps(bench) == LACKS.get(path.name, set())
    claimed = bench["claimed"]
    workload = bench["workloads"][claimed["workload"]]
    better = workload["summary"][claimed["metric"]]["better"]
    holds = module.claim_holds(*stored_runs(workload, claimed["metric"]),
                               better)
    assert holds is workload["summary"][claimed["metric"]].get(
        "claim_holds", True)


def test_record_has_the_committed_layout(tmp_path, monkeypatch):
    # A record of three pairs on seeds 5-7 in which the change quarters
    # wall_s: the full layout, the runs in pair order and the verdicts.
    bench = load_module()
    monkeypatch.setattr(bench, "git", lambda *args: b"0123abc\n")
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(range(5, 8)):
        for side, wall in (("parent", 2.0 + i), ("change", 0.5 + i / 4)):
            record = {"seed": seed, "src_sha256": side, "nproc": 2,
                      "python": "3", "numpy": "2", "scipy": "1",
                      "blas": "b", "blas_version": "0", "limits": "none"}
            result = {"correct": True, "metrics": {
                "wall_s": {"value": wall}, "setup_s": {"value": 0.5}}}
            path = tmp_path / f"{side}-{seed}.txt"
            path.write_text("log line\n" + json.dumps({"record": record})
                            + "\n" + json.dumps(result) + "\n")
            runs[side].append(str(path))
    args = bench.argparse.Namespace(
        parent_rev="HEAD~1", workload="cli_short", seeds=range(5, 8),
        claim="wall_s")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(json.dumps(bench.bench_record(
        args, ["HEAD~1", "--seeds", "5-7"], runs,
        {"compare": ["a table"]}, spec)))
    assert layout_gaps(record) == set()
    assert record["parent_commit"] == "0123abc"
    assert record["claimed"] == {"workload": "cli_short", "metric": "wall_s"}
    assert record["limits"] == "none"
    workload = record["workloads"]["cli_short"]
    assert list(workload["summary"]) == ["setup_s", "wall_s"]
    assert stored_runs(workload, "wall_s") == ([2.0, 3.0, 4.0],
                                               [0.5, 0.75, 1.0])
    assert [(p["seed"], p["first"]) for p in workload["pairs"]] == [
        (5, "parent"), (6, "change"), (7, "parent")]
    wall = workload["summary"]["wall_s"]
    assert wall["parent_q1_median_q3"][1] == 3.0
    assert wall["median_change"] == -0.75
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (3, 0, 3)
    assert wall["claim_holds"] is True
    assert workload["summary"]["setup_s"]["claim_holds"] is False
    assert workload["compare"] == ["a table"] and workload["correct"]


def load_interleave():
    spec = importlib.util.spec_from_file_location(
        "interleave_pairs", ROOT / "scripts" / "interleave_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_interleave_help_exits_0_and_builds_nothing(monkeypatch, capsys):
    module = load_interleave()
    monkeypatch.setattr(module, "build_copies",
                        lambda *args: pytest.fail("built copies"))
    with pytest.raises(SystemExit) as exc:
        module.main(["HEAD", "--workload", "mc_snr", "--seed", "1",
                     "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_median_interval_on_fixed_ratios():
    module = load_interleave()
    # every pair reads the same ratio: the interval has no width
    assert module.median_interval([1.25] * 40, seed=3) == (1.25, 1.25, 1.25)
    # 1.00-1.20 in equal steps: the median is the middle value, and the
    # interval holds it, stays inside the range and repeats per seed
    ratios = [1.0 + 0.01 * i for i in range(21)]
    median, low, high = module.median_interval(ratios, seed=3)
    assert median == pytest.approx(1.1)
    assert 1.0 <= low < median < high <= 1.2
    assert module.median_interval(ratios, seed=3) == (median, low, high)


def test_ratio_table_per_kind_and_overall():
    # simulate reads 10% slower on the change side in every pair and
    # crlb the same, so "all" holds its two kinds' 1.0 and 1.1 ratios.
    module = load_interleave()
    kinds = ["simulate", "crlb"] * 6
    parent = [2.0, 4.0] * 6
    change = [2.2, 4.0] * 6
    lines = module.ratio_table(kinds, parent, change, seed=5).splitlines()
    assert lines[0].split() == ["call", "kind", "pairs", "change/parent",
                                "95%", "interval"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert list(rows) == ["simulate", "crlb", "all"]
    assert rows["simulate"] == ["6", "1.100", "[1.100,", "1.100]"]
    assert rows["crlb"] == ["6", "1.000", "[1.000,", "1.000]"]
    assert rows["all"][:2] == ["12", "1.050"]


@pytest.fixture
def unload():
    """Drops the packages a test imports under the names it lists."""
    names = []
    yield names
    for module in [m for m in sys.modules
                   if m.partition(".")[0] in names]:
        del sys.modules[module]


def test_each_copy_loads_as_its_own_package(unload):
    # The working tree loaded twice gives two packages whose modules
    # import each other, never the other package's, and both run.
    module = load_interleave()
    unload += ["rydberg_doa_a", "rydberg_doa_b"]
    a, b = (module.load_cli(ROOT, name) for name in unload)
    assert a.main is not b.main
    assert a.load_config is sys.modules["rydberg_doa_a.config"].load_config
    assert b.load_config is sys.modules["rydberg_doa_b.config"].load_config
    config = str(ROOT / "configs" / "default.json")
    for cli in (a, b):
        assert cli.main(["check-sampling", "--config", config]) == 0
