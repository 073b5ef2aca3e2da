"""Seeded workload generators.

A workload is a fixed list of passes; a pass is a fixed list of CLI calls
whose JSON configs are generated from (workload, seed, pass index). Every
pass of a workload has the same shape (number of calls, cells, grid sizes)
and draws its continuous inputs (SNRs, LO ratios, bearings) by stratified
sampling, so pass wall times and per-run failure shares stay comparable
across seeds while no two passes share an input.

This module imports nothing from the package: it only writes configs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mc_snr", "fluorescence_lo", "cli_short")

# Sweeps of every call per run; run.py reports per call the best of them,
# each sweep in a fresh interpreter. mc_snr makes three, because its 100
# calls of 300 trials each already take about 9 s a sweep.
SWEEPS = {"mc_snr": 3, "fluorescence_lo": 4, "cli_short": 4}

# Passes per second of --seconds, calibrated on the commit that defined the
# benchmark (2-core x86 VM, Python 3.11, numpy 2.4) so that the sweeps
# take about --seconds there; mc_snr takes longer, held up by MIN_CALLS.
# The work of a run depends only on (seed, seconds), so later commits do
# exactly the same work and per-layer counts repeat.
PASSES_PER_SECOND = {"mc_snr": 0.65, "fluorescence_lo": 1.7, "cli_short": 4.5}

# Each workload makes at least this many distinct CLI calls, so that
# call_p90_ms has at least ten calls beyond it.
MIN_CALLS = 100

CARRIER_HZ = 2.03e9
SIGNAL_V_PER_M = 1e-6

# fig4 shape: the three built-in presets of experiments.run_snr_sweep run
# inside every sweep call, at one SNR each. (Two-SNR calls would double
# the cost of the calls that set call_p90_ms, and MIN_CALLS already makes
# mc_snr the longest workload.)
MC_CALLS = 5
MC_SNR_RANGE_DB = (10.0, 50.0)
MC_TRIALS = 100

# fluorescence_lo: every cell length appears twice and every target count
# six times per pass, in seeded order.
FL_LENGTHS_WL = tuple(range(8, 17))
FL_TARGET_COUNTS = (1, 2, 3)
FL_CALLS = 18
FL_RATIOS_PER_CALL = 3
FL_RATIO_RANGE = (2.0, 50.0)
FL_SNR_RANGE_DB = (25.0, 35.0)
FL_MIN_SEPARATION_DEG = 10.0
# The targets of a scene share this total amplitude, so the LO field
# (ratio x total) stays within 4e-6-1e-4 V/m at ratios 2-50: the vapor's
# linear-response range, where the pipeline keeps within 1/ratio of the
# analytic model. Three 1e-6 V/m targets at ratio 47 put the LO at
# 1.4e-4 V/m, where the gap already reaches 1.2/ratio.
FL_TOTAL_SIGNAL_V_PER_M = 2e-6

# cli_short: simulate and estimate run on single-target scenes at moderate
# SNR, where the estimator does not fail, so no CLI call exits nonzero.
# Bearings stay above -45 deg: below about -54 deg the target nears the
# spatial Nyquist limit of the quarter-wave pitch (LO at +90 deg) and
# single-trial estimates occasionally fail. Those failures, and Prony's
# pair failures, are measured by fluorescence_lo and mc_snr.
CS_LENGTHS_WL = (4, 5, 6, 7, 8)
# One SNR and a strong LO narrow the spread of single-shot RMSE/CRLB
# across scenes, which steadies its median across seeds.
CS_SNR_DB = 35.0
CS_LO_RATIO = 50
CS_MIN_SEPARATION_DEG = 20.0
NYQUIST_CLEAR_DEG = -45.0

MAX_BEARING_DEG = 60.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv without --config, plus the config it reads."""

    kind: str
    command: tuple
    config: str
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def argv(self) -> list[str]:
        return [self.command[0], *self.command[1:], "--config", self.config]


CALLS_PER_PASS = {"mc_snr": MC_CALLS, "fluorescence_lo": FL_CALLS,
                  "cli_short": 13}


def pass_count(workload: str, seconds: float) -> int:
    need = math.ceil(MIN_CALLS / CALLS_PER_PASS[workload])
    return max(need, round(seconds * PASSES_PER_SECOND[workload]))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _stratified(rng: random.Random, n: int, lo: float, hi: float,
                log: bool = False) -> list[float]:
    """n values, one uniform draw in each of n equal strata, shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    if log:
        vals = [math.exp(v) for v in vals]
    vals = [round(v, 6) for v in vals]
    rng.shuffle(vals)
    return vals


def _bearings(rng: random.Random, n: int, min_sep: float,
              lo: float = -MAX_BEARING_DEG) -> list[float]:
    while True:
        angles = sorted(round(rng.uniform(lo, MAX_BEARING_DEG), 3)
                        for _ in range(n))
        if all(b - a >= min_sep for a, b in zip(angles, angles[1:])):
            return angles


def _scene(angles, phases, amplitude=SIGNAL_V_PER_M, lo_ratio=20) -> dict:
    return {
        "carrier_freq_hz": CARRIER_HZ,
        "lo": {"ratio_to_signals": lo_ratio, "phase_deg": 0,
               "angle_deg": 90},
        "signals": [{"amplitude_v_per_m": amplitude, "phase_deg": ph,
                     "angle_deg": a} for a, ph in zip(angles, phases)],
    }


def _seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


def _mc_snr_pass(rng, out: str):
    snrs = _stratified(rng, MC_CALLS, *MC_SNR_RANGE_DB)
    calls = []
    for i, snr in enumerate(snrs):
        values = [snr]
        doc = {
            "scene": _scene((15.0,), (0.0,)),
            "geometry": {"cell_length_wavelengths": 4},
            "prony": {"model_order": 2, "target_count": 1},
            "noise": {"snr_db": 30},
            "run": {"trials": MC_TRIALS, "base_seed": _seed(rng),
                    "output_dir": f"{out}/c{i}"},
            "sweep": {"axis": "snr_db", "values": values},
        }
        calls.append(("sweep", ("sweep",), doc, {"values": values}))
    return calls


def _fl_pass(rng, out: str):
    lengths = list(FL_LENGTHS_WL) * (FL_CALLS // len(FL_LENGTHS_WL))
    counts = list(FL_TARGET_COUNTS) * (FL_CALLS // len(FL_TARGET_COUNTS))
    rng.shuffle(lengths)
    rng.shuffle(counts)
    ratios = _stratified(rng, FL_CALLS * FL_RATIOS_PER_CALL,
                         *FL_RATIO_RANGE, log=True)
    snrs = _stratified(rng, FL_CALLS, *FL_SNR_RANGE_DB)
    calls = []
    for i in range(FL_CALLS):
        n = counts[i]
        values = sorted(ratios[i * FL_RATIOS_PER_CALL:
                               (i + 1) * FL_RATIOS_PER_CALL])
        angles = _bearings(rng, n, FL_MIN_SEPARATION_DEG)
        phases = [round(rng.uniform(0, 360), 3) for _ in range(n)]
        doc = {
            "scene": _scene(angles, phases, FL_TOTAL_SIGNAL_V_PER_M / n),
            "geometry": {"cell_length_wavelengths": lengths[i]},
            "noise": {"snr_db": snrs[i]},
            "run": {"trials": 1, "base_seed": _seed(rng),
                    "output_dir": f"{out}/c{i}"},
            "sweep": {"axis": "lo_ratio", "values": values},
        }
        calls.append(("sweep", ("sweep",), doc, {"values": values}))
    return calls


def _cs_pass(rng, out: str):
    """Four single-target scenes S1-S4, each simulated and then estimated
    from the file simulate wrote; two pair scenes P1 and P2 whose bounds
    are computed; a sampling check on S1, a CRLB-only cell_length sweep on
    P1 and a window_width sampling demo on S4. Of the thirteen calls the
    check is the fastest, then come the four estimates, the two bounds,
    the two sweeps and the four simulations, so the median call falls
    inside the bounds and the 90th percentile inside the simulations,
    never on a boundary between kinds."""
    docs = {}
    # The estimated scenes split the bearing range into strata, which
    # steadies the run's median RMSE/CRLB across seeds.
    singles = [[a] for a in _stratified(rng, 4, NYQUIST_CLEAR_DEG,
                                        MAX_BEARING_DEG)]
    for s, name in enumerate(("S1", "S2", "S3", "S4", "P1", "P2")):
        angles = singles[s] if s < 4 else _bearings(
            rng, 2, CS_MIN_SEPARATION_DEG, NYQUIST_CLEAR_DEG)
        phases = [round(rng.uniform(0, 360), 3) for _ in angles]
        docs[name] = {
            "scene": _scene(angles, phases, lo_ratio=CS_LO_RATIO),
            "geometry": {"cell_length_wavelengths":
                         rng.choice(CS_LENGTHS_WL)},
            "noise": {"snr_db": CS_SNR_DB},
            "run": {"trials": 1, "base_seed": _seed(rng),
                    "output_dir": f"{out}/{name}"},
        }

    def sweep(name, kind, axis, values):
        base = docs[name]
        doc = dict(base, run=dict(base["run"], output_dir=f"{out}/{kind}"),
                   sweep={"axis": axis, "values": values})
        return (kind, ("sweep",), doc, {"values": values})

    def simulate_estimate(name):
        return [("simulate", ("simulate",), docs[name], {}),
                ("estimate", ("estimate", f"{out}/{name}/measurement.csv"),
                 docs[name], {})]

    return [
        ("crlb", ("crlb",), docs["P1"], {}),
        *simulate_estimate("S1"),
        ("check-sampling", ("check-sampling",), docs["S1"], {}),
        *simulate_estimate("S2"),
        ("crlb", ("crlb",), docs["P2"], {}),
        *simulate_estimate("S3"),
        sweep("P1", "sweep_length", "cell_length",
              sorted(rng.sample(range(1, 17), 4))),
        *simulate_estimate("S4"),
        sweep("S4", "sweep_window", "window_width",
              sorted(round(rng.uniform(0.1, 1.0), 3) for _ in range(2))),
    ]


_PASS_BUILDERS = {"mc_snr": _mc_snr_pass, "fluorescence_lo": _fl_pass,
                  "cli_short": _cs_pass}


def generate(workload: str, seed: int, seconds: float, work_dir: str | Path,
             write: bool = True) -> list[list[Call]]:
    """Return the passes of a run; with write, also write their configs
    under work_dir.

    Paths inside configs and argv start with work_dir as given, so a
    relative work_dir keeps them relative to the directory the CLI runs in.
    """
    work_dir = Path(work_dir)
    rel = work_dir.as_posix()
    passes = []
    for p in range(pass_count(workload, seconds)):
        rng = _rng(workload, seed, p)
        out = f"{rel}/out/p{p}"
        cfg_dir = work_dir / "cfg" / f"p{p}"
        if write:
            cfg_dir.mkdir(parents=True, exist_ok=True)
        calls = []
        written: dict[int, str] = {}
        for i, (kind, command, doc, meta) in enumerate(
                _PASS_BUILDERS[workload](rng, out)):
            key = id(doc)
            if key not in written:
                name = f"{i}.json"
                if write:
                    (cfg_dir / name).write_text(json.dumps(doc))
                written[key] = f"{rel}/cfg/p{p}/{name}"
            calls.append(Call(kind=kind, command=command,
                              config=written[key],
                              meta=dict(meta, doc=doc)))
        passes.append(calls)
    return passes
