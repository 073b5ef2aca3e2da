#!/usr/bin/env python3
"""Time a parent revision against the working tree call by call, in one
process.

    python scripts/interleave_pairs.py PARENT_REV --workload W --seed S

Builds the same two sibling copies as scripts/bench_pairs.py in a
temporary directory: `parent/` from `git archive PARENT_REV` and
`change/` from the working tree. Each copy's
src/rydberg_doa is imported under its own package name, so its relative
imports stay inside it, and both copies' `cli.main` run in this one
process. perfbench/workloads.py writes the workload's configs once per
side, from seed S with the work of a BENCHMARK.json run (`run_seconds`),
each side in its own work directory. Both sides first run the first pass
unrecorded. Then every call runs ROUNDS times on each side, one side
right after the other, a seeded random choice picking which side goes
first in each pair.

It prints, per call kind and over all calls, the median of the per-call
latency ratios change/parent and its seeded bootstrap 95% interval. It
only times: the outputs are checked by perfbench. Cold start stays with
perfbench's fresh-interpreter `setup_s`.
"""
import argparse
import importlib
import importlib.util
import json
import random
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3
RESAMPLES = 2000

sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
from bench_pairs import SIDES, build_copies  # noqa: E402
import workloads  # noqa: E402
from worker import call_cli  # noqa: E402


def load_cli(copy: Path, name: str):
    """copy's src/rydberg_doa imported as the package name; its cli."""
    package = copy / "src" / "rydberg_doa"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed(cli, call) -> float:
    started = time.perf_counter()
    call_cli(cli, call)
    return time.perf_counter() - started


def interleave(clis, calls, rounds: int, seed: int) -> dict[str, list]:
    """Each side's latencies in s, rounds passes over its calls in pair
    order: pair i runs calls[side][i] on each side, a seeded random side
    first."""
    rng = random.Random(seed)
    latencies = {side: [] for side in SIDES}
    for _ in range(rounds):
        for i in range(len(calls["parent"])):
            for side in SIDES if rng.random() < 0.5 else SIDES[::-1]:
                latencies[side].append(timed(clis[side], calls[side][i]))
    return latencies


def median_interval(ratios, seed: int) -> tuple[float, float, float]:
    """The median of ratios and its seeded bootstrap 95% interval."""
    ratios = np.asarray(ratios, dtype=float)
    rng = np.random.default_rng(seed)
    medians = np.median(rng.choice(ratios, (RESAMPLES, ratios.size)),
                        axis=1)
    low, high = np.quantile(medians, [0.025, 0.975])
    return float(np.median(ratios)), float(low), float(high)


def ratio_table(kinds, parent, change, seed: int) -> str:
    """Per call kind, in first-seen order, and over all calls: the number
    of pairs, and the median ratio change/parent with its interval."""
    ratios = np.asarray(change) / np.asarray(parent)
    kinds = np.asarray(kinds)
    lines = [f"{'call kind':16s} {'pairs':>6s} {'change/parent':>14s}  "
             f"95% interval"]
    for kind in [*dict.fromkeys(kinds.tolist()), "all"]:
        chosen = ratios if kind == "all" else ratios[kinds == kind]
        median, low, high = median_interval(chosen, seed)
        lines.append(f"{kind:16s} {chosen.size:6d} {median:14.3f}  "
                     f"[{low:.3f}, {high:.3f}]")
    return "\n".join(lines)


def run(parent_rev: str, workload: str, seed: int, out: Path) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    copies = build_copies(parent_rev, out)
    clis = {side: load_cli(copies[side], f"rydberg_doa_{side}")
            for side in SIDES}
    passes = {side: workloads.generate(workload, seed, spec["run_seconds"],
                                       (out / f"work-{side}").resolve())
              for side in SIDES}
    for side in SIDES:
        for call in passes[side][0]:
            call_cli(clis[side], call)
    calls = {side: [call for calls in passes[side] for call in calls]
             for side in SIDES}
    latencies = interleave(clis, calls, ROUNDS, seed)
    kinds = [call.kind for call in calls["parent"]] * ROUNDS
    return (f"{workload} seed {seed}, {ROUNDS} rounds\n"
            + ratio_table(kinds, latencies["parent"], latencies["change"],
                          seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        print(run(args.parent_rev, args.workload, args.seed, Path(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
