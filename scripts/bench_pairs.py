#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree in alternating pairs.

    python scripts/bench_pairs.py PARENT_REV --workload W --seeds A-B --out DIR

Builds two fresh sibling copies under DIR: `parent/` from `git archive
PARENT_REV`, and `change/` from the files `git ls-files` lists (tracked,
and untracked but not ignored), as they are in the working tree. Pair i
runs perfbench/run.py on seed A + i in each copy, the parent first when
i is even, and saves each run's stdout as DIR/<side>-<seed>.txt. Then it
prints perfbench/compare.py's table of all the runs, the claim rule per
end-to-end metric, and each side's median latency per call kind, so that
a percentile claim can name the kind of call it lands on. Every run lasts
BENCHMARK.json's run_seconds. Both sides run from copies because runs
from the checkout itself have read about 14% faster than runs from a
copy of the same tree.

With --record FILE it also writes what it prints as JSON, in the layout
of the committed BENCH_*.json files: what, command, parent_commit,
claimed (the workload and the metric given by --claim, or null), limits,
and workloads. The workload's entry holds a summary per end-to-end metric
(both sides' quartiles and medians, the pairs won and the claim rule's
verdict), the printed tables, and each pair's seed and order with each
side's record line (host, library versions) and result (metrics).
"""
import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

sys.path.insert(0, str(ROOT / "perfbench"))
from compare import load, spread  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def build_copies(parent_rev: str, out: Path) -> dict[str, Path]:
    """Fresh parent/ and change/ trees under out, replacing old ones."""
    copies = {side: out / side for side in SIDES}
    for path in copies.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    archive = git("archive", "--format=tar", parent_rev)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(copies["parent"], filter="data")
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard")
    for name in listed.decode().split("\0"):
        if name and (ROOT / name).is_file():
            target = copies["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target)
    return copies


def run(copy: Path, workload: str, seed: int, seconds: float,
        saved: Path) -> None:
    """One perfbench run in copy; its stdout goes to saved."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True)
    saved.write_text(done.stdout)
    if done.returncode != 0:
        sys.exit(f"{saved.name}: perfbench/run.py exited "
                 f"{done.returncode}\n{done.stderr}")


def tally(parent, change, better: str) -> tuple[int, int, int]:
    """(won, lost, tied): the pairs (parent[i], change[i]) in which the
    change is better, worse, or equal, better being "lower" or
    "higher"."""
    sign = 1 if better == "lower" else -1
    gaps = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    return (sum(g > 0 for g in gaps), sum(g < 0 for g in gaps),
            sum(g == 0 for g in gaps))


def claim_holds(parent, change, better: str) -> bool:
    """The claim rule: the change won at least 9 in 10 pairs, and its
    median is better than the parent's by more than the parent's quartile
    spread."""
    won, _, _ = tally(parent, change, better)
    sign = 1 if better == "lower" else -1
    gap = sign * (statistics.median(parent) - statistics.median(change))
    return 10 * won >= 9 * len(parent) and gap > spread(parent)


def claim_table(parent_runs, change_runs) -> str:
    """Per end-to-end metric, the pairs won, lost and tied and whether the
    claim rule holds, for run files listed in pair order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_runs), load(change_runs)
    lines = [f"{'metric':24s} {'won':>4s} {'lost':>4s} {'tied':>4s}  claim"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in parent and name in change:
            won, lost, tied = tally(parent[name], change[name],
                                    metric["better"])
            holds = claim_holds(parent[name], change[name], metric["better"])
            lines.append(f"{name:24s} {won:4d} {lost:4d} {tied:4d}  "
                         f"{'holds' if holds else 'not met'}")
    return "\n".join(lines)


def read_run(path) -> dict:
    """A run file's last record line and its result line."""
    lines = Path(path).read_text().strip().splitlines()
    records = [json.loads(line)["record"] for line in lines
               if line.startswith('{"record"')]
    return {"record": records[-1] if records else None,
            "result": json.loads(lines[-1])}


def kind_latencies(paths) -> dict[str, list[float]]:
    """Each call kind's median latency in ms, one per run file that has
    it, read from the call_p50_ms_by_kind of the file's record line."""
    kinds: dict[str, list[float]] = {}
    for path in paths:
        record = read_run(path)["record"] or {}
        for kind, ms in record.get("call_p50_ms_by_kind", {}).items():
            kinds.setdefault(kind, []).append(ms)
    return kinds


def kind_table(parent_runs, change_runs) -> str:
    """Per call kind of both sides, the median over runs of its median
    latency on each side and the change as a share of the parent's."""
    parent, change = kind_latencies(parent_runs), kind_latencies(change_runs)
    lines = [f"{'call kind':24s} {'parent ms':>10s} {'change ms':>10s} "
             f"{'change':>8s}"]
    for kind in (k for k in parent if k in change):
        old = statistics.median(parent[kind])
        new = statistics.median(change[kind])
        lines.append(f"{kind:24s} {old:10.4g} {new:10.4g} "
                     f"{(new - old) / old:+8.2%}")
    return "\n".join(lines)


def summary(parent, change, better: str) -> dict:
    """One end-to-end metric's entry of a record: the runs of each side,
    in pair order, summarized as the committed BENCH_*.json files do."""
    won, _, tied = tally(parent, change, better)
    return {
        "better": better,
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "median_change": relative(statistics.median(parent),
                                  statistics.median(change)),
        "pair_change_median": statistics.median(
            relative(p, c) for p, c in zip(parent, change)),
        "parent_iqr": spread(parent),
        "change_wins": won, "ties": tied, "pairs": len(parent),
        "claim_holds": claim_holds(parent, change, better),
    }


def relative(old: float, new: float) -> float:
    """new - old as a share of old, 0 when old is 0, as compare.py reads
    a change."""
    return (new - old) / abs(old) if old else 0.0


def quartiles(values) -> list[float]:
    """[q1, median, q3] by compare.spread's rule; one run gives it thrice."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def bench_record(args, argv, runs, tables, spec) -> dict:
    """The record --record writes: the printed tables and every run, in
    the committed BENCH_*.json files' layout (see the module docstring)."""
    values = {side: load(runs[side]) for side in SIDES}
    pairs = [{"pair": i, "seed": seed, "first": SIDES[i % 2],
              **{side: read_run(runs[side][i]) for side in SIDES}}
             for i, seed in enumerate(args.seeds)]
    return {
        "what": f"perfbench/run.py end-to-end runs of {args.parent_rev} "
                "and of the working tree, in alternating pairs made by "
                "scripts/bench_pairs.py (pair i runs the parent first when "
                "i is even), each pair on its own seed; each side ran from "
                "a fresh sibling copy (git archive of the parent, git "
                "ls-files of the change)",
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv),
        "parent_commit": git("rev-parse", args.parent_rev).decode().strip(),
        "claimed": args.claim and {"workload": args.workload,
                                   "metric": args.claim},
        "limits": next((pair[side]["record"]["limits"] for pair in pairs
                        for side in SIDES if pair[side]["record"]), None),
        "workloads": {args.workload: {
            "summary": {
                metric["name"]: summary(values["parent"][metric["name"]],
                                        values["change"][metric["name"]],
                                        metric["better"])
                for metric in spec["end_to_end"]
                if all(metric["name"] in v for v in values.values())},
            **tables,
            "correct": all(pair[side]["result"]["correct"]
                           for pair in pairs for side in SIDES),
            "pairs": pairs,
        }},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive seed range A-B, one pair per seed")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--record", type=Path,
                        help="also write what is printed, as JSON, here")
    parser.add_argument("--claim", metavar="METRIC",
                        choices=[m["name"] for m in spec["end_to_end"]],
                        help="the end-to-end metric the change claims, "
                             "named in the record")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    copies = build_copies(args.parent_rev, args.out)
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            saved = args.out / f"{side}-{seed}.txt"
            run(copies[side], args.workload, seed, seconds, saved)
            print(f"pair {i} seed {seed}: {side} done", flush=True)
    runs = {side: [str(args.out / f"{side}-{seed}.txt")
                   for seed in args.seeds] for side in SIDES}
    compared = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"),
         "--base", *runs["parent"], "--new", *runs["change"]],
        capture_output=True, text=True)
    tables = {"compare": compared.stdout,
              "claim": claim_table(runs["parent"], runs["change"]),
              "kinds": kind_table(runs["parent"], runs["change"])}
    for table in tables.values():
        print(table.rstrip("\n"))
    print(compared.stderr, end="", file=sys.stderr)
    if args.record:
        tables = {name: table.splitlines() for name, table in tables.items()}
        args.record.write_text(json.dumps(
            bench_record(args, argv, runs, tables, spec), indent=1) + "\n")
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
