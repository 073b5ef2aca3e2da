#!/usr/bin/env python3
"""Compare the Monte Carlo sweep of a parent revision and the working tree,
or of two configs on the working tree.

    python scripts/stat_guard.py PARENT_REV --config CFG --seeds N --out DIR
    python scripts/stat_guard.py --config A --versus B --seeds N --out DIR

Given PARENT_REV, builds the sibling copies DIR/parent and DIR/change as
scripts/bench_pairs.py does, then runs CFG's sweep in each copy. Given
--versus, runs A's sweep (the parent column) and B's (the change column)
in the working tree itself; their sweeps must have the same cells. Each
side runs at the base seeds 1000*j + 7, j = 0..N-1; with fewer than 1000
trials a cell, no two runs share a trial seed. Per cell (sweep file and
axis value) it prints the failures on each side summed over the seeds,
the two-proportion z of the failure rates, the median over seeds of the
RMSE ratio change/parent, the seeds whose failure counts differ and the
largest relative RMSE move. It exits 1 when any |z| exceeds the
two-sided threshold at a family-wise level of ALPHA, Bonferroni-corrected
for the number of cells, and 0 otherwise.
"""
import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, SIDES, build_copies  # noqa: E402

ALPHA = 0.01

# Runs the sweeps of one side in one interpreter: argv[1] is the config,
# argv[2] the output root, the rest are base seeds.
RUNNER = """
import sys
from rydberg_doa import cli
config, out = sys.argv[1:3]
for seed in sys.argv[3:]:
    code = cli.main(["sweep", "--config", config, "--out",
                     f"{out}/seed-{seed}", "--seed", seed])
    if code:
        sys.exit(f"sweep at seed {seed} exited {code}")
"""


def base_seeds(n: int) -> list[int]:
    return [1000 * j + 7 for j in range(n)]


def run_side(tree: Path, config: Path, seeds: list[int], out: Path) -> None:
    """CFG's sweep in tree at each base seed, into out/seed-<seed>/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(config), str(out),
         *map(str, seeds)], cwd=tree, env=env, capture_output=True,
        text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: {done.stderr.strip()}")


def read_cells(out: Path, seeds: list[int]) -> dict:
    """{(file, axis value): [(rmse_deg, trials, failures) per seed]}."""
    cells = {}
    for seed in seeds:
        for path in sorted((out / f"seed-{seed}").glob("*.csv")):
            with open(path, newline="") as handle:
                for row in csv.DictReader(handle):
                    rmse = float(row["rmse_deg"] or "nan")
                    cells.setdefault((path.name, row["axis_value"]), [])
                    cells[path.name, row["axis_value"]].append(
                        (rmse, int(row["trials"]), int(row["failures"])))
    return cells


def two_proportion_z(f1: int, n1: int, f2: int, n2: int) -> float:
    """z of the failure rate f2/n2 against f1/n1 under a pooled rate; 0
    when neither side has a trial or the pooled rate is 0 or 1."""
    if not n1 or not n2:
        return 0.0
    pooled = (f1 + f2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return 0.0 if se == 0 else (f2 / n2 - f1 / n1) / se


def compare(parent: dict, change: dict) -> list[dict]:
    """One summary per cell of the parent, in its order; both sides must
    have run the same cells equally often."""
    extra = change.keys() - parent.keys()
    if extra:
        raise SystemExit(f"cells {sorted(extra)} ran on the change only")
    rows = []
    for key, runs in parent.items():
        other = change.get(key, [])
        if len(other) != len(runs):
            raise SystemExit(f"cell {key} ran {len(runs)} times on the "
                             f"parent and {len(other)} on the change")
        f1, n1 = sum(r[2] for r in runs), sum(r[1] for r in runs)
        f2, n2 = sum(r[2] for r in other), sum(r[1] for r in other)
        ratios = [b[0] / a[0] for a, b in zip(runs, other)
                  if math.isfinite(a[0]) and math.isfinite(b[0]) and a[0]]
        rows.append({
            "file": key[0], "value": key[1], "failures": (f1, f2),
            "trials": (n1, n2), "z": two_proportion_z(f1, n1, f2, n2),
            "ratio": statistics.median(ratios) if ratios else math.nan,
            "flips": sum(a[2] != b[2] for a, b in zip(runs, other)),
            "move": max((abs(r - 1) for r in ratios), default=math.nan)})
    return rows


def threshold(cells: int) -> float:
    """Two-sided |z| threshold at level ALPHA over this many cells."""
    return statistics.NormalDist().inv_cdf(1 - ALPHA / (2 * max(cells, 1)))


def report(rows: list[dict], limit: float) -> str:
    lines = [f"|z| threshold {limit:.3f} (level {ALPHA}, {len(rows)} cells)",
             "| file | axis value | failures parent | failures change | z "
             "| median RMSE ratio | seeds with other failures "
             "| largest RMSE move |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        flag = " FLAGGED" if abs(r["z"]) > limit else ""
        lines.append(
            f"| {r['file']} | {r['value']} | {r['failures'][0]}/"
            f"{r['trials'][0]} | {r['failures'][1]}/{r['trials'][1]} "
            f"| {r['z']:+.2f}{flag} | {r['ratio']:.9f} | {r['flips']} "
            f"| {r['move']:.2g} |")
    return "\n".join(lines)


def guard(trees: dict, configs: dict, n_seeds: int, out: Path) -> int:
    """Run each side's config in its tree, print the table; 1 when a cell
    is flagged."""
    seeds = base_seeds(n_seeds)
    cells = {}
    for side in SIDES:
        run_side(trees[side], configs[side], seeds, out / f"{side}-runs")
        cells[side] = read_cells(out / f"{side}-runs", seeds)
    rows = compare(cells["parent"], cells["change"])
    limit = threshold(len(rows))
    print(report(rows, limit))
    return int(any(abs(r["z"]) > limit for r in rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev", nargs="?",
                        help="git revision to compare against")
    parser.add_argument("--config", type=Path, required=True,
                        help="config whose sweep both sides run, or the "
                             "parent column's with --versus")
    parser.add_argument("--versus", type=Path,
                        help="the change column's config, run with "
                             "--config on the working tree")
    parser.add_argument("--seeds", type=int, required=True,
                        help="number of base seeds 1000*j + 7")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if (args.parent_rev is None) == (args.versus is None):
        parser.error("give either PARENT_REV or --versus")
    configs = {side: path.resolve() for side, path in
               zip(SIDES, (args.config, args.versus or args.config))}
    for config in configs.values():
        if "sweep" not in json.loads(config.read_text()):
            parser.error(f"{config} has no sweep")
    out = args.out.resolve()
    trees = (dict.fromkeys(SIDES, ROOT) if args.parent_rev is None
             else build_copies(args.parent_rev, out))
    return guard(trees, configs, args.seeds, out)


if __name__ == "__main__":
    sys.exit(main())
