"""Compare two sets of benchmark result files.

A result file is the saved standard output of one run of perfbench/run.py
(its last line is the result object). Give the runs of the parent commit
after --base and those of the change after --new, all of one workload:

    python3 perfbench/compare.py --base base-*.txt --new new-*.txt

For each metric it prints both medians, their quartile spread, the change
as a share of the base median, and a verdict against BENCHMARK.json's bound:
"worse" when the new median is worse by more than the bound, "unresolved"
when the base runs themselves spread wider than the bound, else "ok".
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text().strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    print(f"{'metric':44s} {'base':>12s} {'new':>12s} {'change':>8s} "
          f"{'bound':>6s}  verdict")
    for name in (n for n in base if n in info and n in new):
        b, n = statistics.median(base[name]), statistics.median(new[name])
        sign = 1 if info[name]["better"] == "lower" else -1
        change = (n - b) / abs(b) if b else 0.0
        bound = info[name].get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok"
            if b and spread(base[name]) / abs(b) > bound:
                verdict = "unresolved"
            elif sign * change > bound:
                verdict = "worse"
        print(f"{name:44s} {b:12.6g} {n:12.6g} {change:+8.2%} "
              f"{bound if bound is not None else '':>6}  {verdict}")


if __name__ == "__main__":
    main()
