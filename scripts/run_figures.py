#!/usr/bin/env python3
"""Run the bundled figure configs and collect their CSVs under one directory.

Each sub-run is equivalent to
`rydberg-doa sweep --config configs/<name>.json --out <out>/<name>`.

    python scripts/run_figures.py [--out DIR]
"""
import argparse
import sys
import time
from pathlib import Path

from rydberg_doa import cli

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ["fig2", "fig3c", "fig4", "fig6", "fig7a", "fig7b"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "out",
                        help="output directory (default: out/ under the "
                             "repository root)")
    args = parser.parse_args(argv)
    for name in FIGURES:
        config = ROOT / "configs" / f"{name}.json"
        print(f"--- {name} ---")
        started = time.perf_counter()
        code = cli.main(["sweep", "--config", str(config),
                         "--out", str(args.out / name)])
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"{name} done in {time.perf_counter() - started:.1f}s\n")
    print(f"figure data written under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
