"""rydberg-doa benchmark: one workload per run, driven through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_snr --seed 1 --seconds 10 --trace 0

The workload's JSON configs are generated from --seed; the amount of work
follows from --seconds (see workloads.PASSES_PER_SECOND). Each sweep over
the workload's calls runs in a fresh interpreter (worker.py), one at a
time, and every call goes through rydberg_doa.cli.main(argv) there.
Timings are scaled to nominal host speed (speed.py) and a call's latency
is its best over workloads.SWEEPS sweeps, which absorbs the slow periods
of a shared host. Set-up time is measured in fresh interpreters between
the sweeps. --trace 1 runs one untraced and one traced sweep and reports
per-layer metrics.

The last stdout line is the result object; the line before it is the run
record (environment, failure counts, trace details). Exit code 0 means
every output check passed; 1 means a check failed or a sweep crashed; 2
means the package is missing from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import metrics
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Relative to ROOT, the working directory of every process of a run.
WORK = Path(".perfbench_work")
PROCESS_TIMEOUT_S = 150

LIMITS = ("CPU frequency cannot be pinned and the file cache cannot be "
          "dropped here. The host is a shared 2-core VM whose speed drifts "
          "by up to 2x over seconds to tens of seconds. Timings are scaled "
          "to nominal host speed by a reference kernel timed between passes "
          "(speed.py), and each call's latency is its best over several "
          "sweeps, each in a fresh interpreter. Set-up time is not scaled.")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def python(script: str, *args: str) -> str:
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    return subprocess.run(
        [sys.executable, str(HERE / script), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
        check=True).stdout


def probe_setup(args, index: int) -> float:
    """One sample of import + config generation in a fresh interpreter.
    Not scaled by host speed: one reference timing is too short to track
    the host across a 0.7 s import."""
    probe_dir = WORK / f"probe{index}"
    out = python("setup_probe.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--dir", probe_dir.as_posix())
    shutil.rmtree(probe_dir, ignore_errors=True)
    return float(out.strip())


def sweep(args, index: int, trace: int) -> dict:
    out = WORK / f"sweep{index}.json"
    python("worker.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", (WORK / "run").as_posix(),
           "--trace", str(trace), "--out", out.as_posix())
    return json.loads(out.read_text())


def import_package():
    """Import rydberg_doa from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rydberg_doa
    if Path(rydberg_doa.__file__).resolve().parents[1] != src.resolve():
        raise ImportError(f"rydberg_doa imported from {rydberg_doa.__file__}")


def trials_in(call) -> int:
    if call.kind == "estimate":
        return 1
    if call.kind != "sweep":
        return 0
    doc = call.meta["doc"]
    if doc["sweep"]["axis"] == "snr_db":
        return len(checks.SNR_PRESETS) * len(doc["sweep"]["values"]) \
            * doc["run"]["trials"]
    return len(doc["sweep"]["values"]) * doc["run"]["trials"]


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def run_record(args, passes, setup, failed_share, extra) -> dict:
    import numpy as np

    try:
        from importlib.metadata import version
        scipy_version = version("scipy")
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    blas_cfg = blas.get("openblas configuration", "")
    max_threads = next((tok.split("=", 1)[1] for tok in blas_cfg.split()
                        if tok.startswith("MAX_THREADS=")), None)
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "calls": sum(len(p) for p in passes),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_max_threads": max_threads,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "setup_samples_s": setup,
        "failed_share": failed_share,
        "limits": LIMITS,
        **extra,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "rydberg_doa" / "cli.py").is_file():
        print(f"perfbench: no rydberg_doa package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        passes = workloads.generate(args.workload, args.seed, args.seconds,
                                    WORK / "run")
        traces = (0, 1) if args.trace else \
            (0,) * workloads.SWEEPS[args.workload]
        # Set-up probes go between the sweeps, so that their median spans
        # the run rather than one slow stretch of the host; the first one
        # only fills the bytecode cache.
        setup, sweeps = [], []
        try:
            probe_setup(args, 0)
            for i, trace in enumerate(traces):
                setup.append(probe_setup(args, i + 1))
                sweeps.append(sweep(args, i, trace))
            setup.append(probe_setup(args, len(traces) + 1))
        except subprocess.CalledProcessError as exc:
            print(f"perfbench: {exc.cmd[1]} failed:\n{exc.stderr}",
                  file=sys.stderr)
            return 1
        import_package()
        return report(args, passes, setup, sweeps)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def scale(sweep_result, passes) -> tuple[list[float], list[float]]:
    """Per-pass wall times and per-call latencies of one sweep, scaled to
    nominal host speed by the reference timings around each pass."""
    refs = sweep_result["refs"]
    factors = [speed.factor((a + b) / 2) for a, b in zip(refs, refs[1:])]
    walls = [w * f for w, f in zip(sweep_result["walls"], factors)]
    latencies = [r["latency_s"] * f
                 for f, calls in zip(factors, passes) for r in calls]
    return walls, latencies


def report(args, passes, setup, sweeps) -> int:
    calls = [c for p in passes for c in p]
    scaled = []
    for s in sweeps:
        by_pass = iter(s["calls"])
        scaled.append(scale(s, [[next(by_pass) for _ in p] for p in passes]))
    records = []
    for i, call in enumerate(calls):
        codes = [s["calls"][i]["rc"] for s in sweeps]
        records.append({
            "call": call,
            "rc": next((rc for rc in codes if rc != 0), 0),
            "stdout": sweeps[-1]["calls"][i]["stdout"],
            "latency_s": min(lat[i] for _, lat in scaled)})
    bad = [r for r in records if r["rc"] != 0]
    problems = [f"{r['call'].config}: {r['call'].kind} exit code {r['rc']}"
                for r in bad
                if args.workload != "cli_short" or "exception" in str(r["rc"])]
    more, ratios, ops, failed_ops = checks.BY_WORKLOAD[args.workload](
        [r for r in records if r["rc"] == 0], args.seed)
    problems += more
    if args.workload == "cli_short":
        ops, failed_ops = len(records), len(bad)
    failed_share = {"failed": failed_ops, "attempted": ops,
                    "share": failed_ops / ops}
    walls = [min(w) for w in zip(*(w for w, _ in scaled))]
    extra = {
        "sweep_wall_s_raw": [statistics.median(s["walls"]) for s in sweeps],
        "sweep_host_speed": [speed.NOMINAL_S / statistics.median(s["refs"])
                             for s in sweeps]}
    if args.trace:
        untraced, traced = (statistics.median(w) for w, _ in scaled)
        values = dict(sweeps[1]["layers"])
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_share"] = (traced - untraced) / untraced
        units = {n: u for n, u, _ in metrics.PER_LAYER}
        extra.update({k: sweeps[1][k] for k in ("absent", "failed_by_class")})
    else:
        latencies = [r["latency_s"] * 1e3 for r in records]
        trials = [sum(trials_in(c) for c in p) for p in passes]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "call_p50_ms": quantile(latencies, 0.5),
            "call_p90_ms": quantile(latencies, 0.9),
            "trials_per_s": statistics.median(
                t / w for t, w in zip(trials, walls)),
            "success_share": 1 - failed_share["share"],
        }
        units = {n: u for n, u, _, _ in metrics.END_TO_END}
        by_kind = {}
        for r in records:
            by_kind.setdefault(r["call"].kind, []).append(
                r["latency_s"] * 1e3)
        extra["call_p50_ms_by_kind"] = {
            k: statistics.median(v) for k, v in sorted(by_kind.items())}
    # Accuracy guard, in the record rather than bounded: on the two
    # single-trial workloads its median spreads 16-29% across seeds.
    extra["rmse_over_crlb_p50"] = statistics.median(ratios)
    record = run_record(args, passes, setup, failed_share, extra)
    record["problems"] = problems[:20]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(bad),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
