#!/usr/bin/env python3
"""Save what every CLI command writes for every bundled config of a tree.

    python scripts/output_bytes.py [--tree DIR] --out OUT

For each DIR/configs/<name>.json (DIR defaults to this checkout) it runs
check-sampling, simulate, estimate on simulate's measurement.csv, crlb
and, when the config has a sweep, sweep, in this process on DIR/src's
rydberg_doa. Each command writes its files, exit_code.txt, stdout.txt and
stderr.txt under OUT/<name>/<command>/, so the trees of two revisions
compare with `diff -r`. What differs between identical runs, or when code
moves, is normalized: each command runs with fresh warnings state and a
warning reads `<category>: <message>` in stderr.txt; the absolute OUT and
DIR paths read <out> and <tree>; wall times in stdout and the manifest's
wall_time_s read <wall>.
"""
import argparse
import contextlib
import importlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL = re.compile(r"\(\d+\.\d+s\)")
MANIFEST_WALL = re.compile(r'"wall_time_s": [-+.\deE]+')


def load_cli(tree: Path):
    """DIR/src's rydberg_doa.cli; an error if another copy is imported."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("rydberg_doa.cli")
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"rydberg_doa is already imported from "
                         f"{cli.__file__}, not from {src}")
    return cli


def run(cli, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) with fresh warnings
    state, each warning written to stderr as `<category>: <message>`."""
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, *args, **kwargs):
        stderr.write(f"{category.__name__}: {message}\n")

    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        warnings.showwarning = show
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def commands(config: Path, out: Path) -> dict[str, list[str]]:
    """argv of each command on config, keyed by command, in run order."""
    names = ["check-sampling", "simulate", "estimate", "crlb"]
    if "sweep" in json.loads(config.read_text()):
        names.append("sweep")
    measurement = [str(out / "simulate" / "measurement.csv")]
    return {name: [name, *(measurement if name == "estimate" else []),
                   "--config", str(config), "--out", str(out / name)]
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="source tree to run (default: this checkout)")
    parser.add_argument("--out", type=Path, required=True,
                        help="new or empty directory for the results")
    args = parser.parse_args(argv)
    tree, out = args.tree.resolve(), args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"--out {out} is not empty")
    cli = load_cli(tree)

    def normalize(text: str) -> str:
        text = text.replace(str(out), "<out>").replace(str(tree), "<tree>")
        return WALL.sub("(<wall>s)", text)

    for config in sorted((tree / "configs").glob("*.json")):
        for name, argv in commands(config, out / config.stem).items():
            here = out / config.stem / name
            here.mkdir(parents=True)
            code, stdout, stderr = run(cli, argv)
            (here / "exit_code.txt").write_text(f"{code}\n")
            (here / "stdout.txt").write_text(normalize(stdout))
            (here / "stderr.txt").write_text(normalize(stderr))
            manifest = here / "manifest.json"
            if manifest.exists():
                manifest.write_text(MANIFEST_WALL.sub(
                    '"wall_time_s": "<wall>"',
                    normalize(manifest.read_text())))
    print(f"outputs of {tree} written under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
