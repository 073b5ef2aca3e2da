"""Set-up probe: in a fresh interpreter, time `import rydberg_doa.cli` plus
generating and writing the workload's configs. Prints the seconds taken.

Run by run.py from the repository root; not meant to be run by hand.
"""

import argparse
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rydberg_doa.cli  # noqa: F401
    workloads.generate(args.workload, args.seed, args.seconds, args.dir)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
