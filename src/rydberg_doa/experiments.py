"""Monte Carlo harness and the desk-scale simulation studies.

Each runner is deterministic for a fixed (config, base_seed): trial t of
a cell draws its noise with seed cell_seed + t, and cell c of a sweep has
cell_seed = base_seed + CELL_SEED_STRIDE * c, counting the cells of
run_snr_sweep preset by preset. Seed streams therefore stay apart while
a cell has fewer than CELL_SEED_STRIDE trials, which config parsing
enforces. All trials of a cell run as one batched estimate. Trial
failures (estimation errors) are counted per cell, never silently
dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import physics, scenarios, sensing
from .crlb import FimInputs, crlb_report
from .errors import RydbergDoaError
# estimate_doa stays bound here: perfbench's tracer wraps it at every
# binding and its self-test expects this one.
from .estimation import (  # noqa: F401
    PronyConfig,
    estimate_doa,
    estimate_doa_batch,
)
from .physics import AtomicParams, RfScene
from .sensing import (
    ANALYTIC_MODEL,
    SIMULATED_FLUORESCENCE,
    MeasurementVector,
    SensorGeometry,
)

SWEEP_AXES = ("lo_ratio", "snr_db", "cell_length", "sampling_interval",
              "window_width")

CELL_SEED_STRIDE = 1_000_000

DEMO_ANGLE_STEP_DEG = 0.25

LO_RATIO_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
SNR_GRID_DB = tuple(float(s) for s in range(10, 55, 5))
LENGTH_GRID_WL = (1.0, 2.0, 4.0, 8.0)
LENGTH_SWEEP_ANGLES_DEG = (0.0, 30.0, 60.0)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo cell (or a sweep template when sweep is set)."""

    scene: RfScene
    geometry: SensorGeometry
    prony: PronyConfig
    params: AtomicParams
    snr_db: float | None = 30.0
    trials: int = 100
    base_seed: int = 0
    source: str = ANALYTIC_MODEL
    sweep: SweepSpec | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class McResult:
    """Per-cell Monte Carlo outcome; RMSE is over successful trials only."""

    rmse_rad: float
    trials: int
    failures: int

    @property
    def successes(self) -> int:
        return self.trials - self.failures


@dataclass(frozen=True)
class SweepResult:
    axis: str
    values: tuple
    rmse_rad: tuple
    crlb_std_rad: tuple | None
    trials: int
    failures: tuple


@dataclass(frozen=True)
class LinearizationCheck:
    """Exact vs linearized absorption for a weak/strong LO pair."""

    positions: np.ndarray
    exact_weak: np.ndarray
    linear_weak: np.ndarray
    exact_strong: np.ndarray
    linear_strong: np.ndarray
    rms_weak: float
    rms_strong: float
    normalized_rms_weak: float
    normalized_rms_strong: float

    @property
    def residual_ratio(self) -> float:
        """Weak-to-strong ratio of modulation-normalized RMS residuals."""
        if self.normalized_rms_strong == 0:
            return np.nan
        return self.normalized_rms_weak / self.normalized_rms_strong


@dataclass(frozen=True)
class SamplingDemoCurve:
    label: str
    value_wavelengths: float
    power: np.ndarray  # normalized to the common max across the case


@dataclass(frozen=True)
class SamplingDemoResult:
    case: str
    angles_deg: np.ndarray
    curves: tuple


def synthesize(scenario: ScenarioConfig) -> MeasurementVector:
    """Noiseless measurement vector for the configured synthesis path."""
    if scenario.source == ANALYTIC_MODEL:
        return sensing.predicted_measurements(
            scenario.scene, scenario.geometry, scenario.params)
    if scenario.source == SIMULATED_FLUORESCENCE:
        return sensing.simulate_measurements(
            scenario.scene, scenario.geometry, scenario.params)
    raise ValueError(f"unknown synthesis source {scenario.source!r}")


def match_errors(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-target absolute angle errors under minimum-total-error pairing.

    estimated is one (M,) row or a (T, M) stack, paired row by row with
    the N truths; min(M, N) errors per row, in estimate order when M <= N.
    Pairings are tried in itertools.permutations order and a tie keeps
    the first.
    """
    cost = np.abs(np.asarray(estimated, dtype=float)[..., :, None]
                  - np.asarray(truth, dtype=float))
    if cost.shape[-2] > cost.shape[-1]:
        cost = np.swapaxes(cost, -1, -2)
    rows, cols = cost.shape[-2:]
    best = best_total = None
    for perm in itertools.permutations(range(cols), rows):
        errors = cost[..., np.arange(rows), perm]
        total = errors.sum(axis=-1)
        if best is None:
            best, best_total = errors, total
            continue
        better = total < best_total
        best = np.where(better[..., None], errors, best)
        best_total = np.where(better, total, best_total)
    return best


def mc_rmse(scenario: ScenarioConfig) -> McResult:
    """Monte Carlo RMSE of the DoA estimate for one scenario cell.

    The noiseless vector is synthesized once (the scene is deterministic);
    trial t adds noise with seed base_seed + t, and the (trials, K) stack
    of noisy vectors is estimated in one batched Prony solve. Errors are
    matched to the true bearings trial by trial.
    """
    clean = synthesize(scenario)
    truth = scenarios.true_doas(scenario.scene)
    meta = (scenario.scene.wavenumber, scenario.scene.lo.angle)
    trials = scenario.trials
    try:
        if scenario.snr_db is None:
            stack = replace(clean, values=np.broadcast_to(
                clean.values, (trials, len(clean.values))))
        else:
            stack = sensing.add_noise(
                clean, scenario.snr_db,
                range(scenario.base_seed, scenario.base_seed + trials))
        batch = estimate_doa_batch(stack, meta, scenario.prony)
    except RydbergDoaError:
        return McResult(rmse_rad=np.inf, trials=trials, failures=trials)
    ok = ~batch.failed
    doas, counts = batch.doas[ok], batch.target_counts[ok]
    # Singular-value order selection may vary the target count by trial.
    errors = [match_errors(doas[counts == n, :n], truth).ravel()
              for n in np.unique(counts)]
    rmse = float(np.sqrt((np.concatenate(errors) ** 2).mean())) if errors \
        else np.inf
    return McResult(rmse_rad=rmse, trials=trials,
                    failures=trials - int(ok.sum()))


def run_linearization_check(params: AtomicParams, scene_weak: RfScene,
                            scene_strong: RfScene,
                            grid: np.ndarray) -> LinearizationCheck:
    """Exact vs linearized absorption profiles for a weak/strong LO pair.

    The scenes must share their signals and differ only in LO amplitude.
    Residual RMS values are reported both raw and normalized by each
    regime's total modulation amplitude, the scale on which the
    1/ratio error model is comparable across LO levels.
    """
    if scene_weak.signals != scene_strong.signals or \
            scene_weak.carrier_freq != scene_strong.carrier_freq or \
            (scene_weak.lo.phase, scene_weak.lo.angle) != \
            (scene_strong.lo.phase, scene_strong.lo.angle):
        raise ValueError("scenes must share signals and differ only in "
                         "LO amplitude")
    grid = np.asarray(grid, dtype=float)

    def profiles(scene):
        exact = physics.absorption_exact(params, scene, grid)
        linear = physics.absorption_linearized(params, scene, grid)
        rms = float(np.sqrt(np.mean((exact - linear) ** 2)))
        mods = float(np.abs(physics.modulation_amplitudes(params,
                                                          scene)).sum())
        return exact, linear, rms, (rms / mods if mods > 0 else 0.0)

    ew, lw, rms_w, norm_w = profiles(scene_weak)
    es, ls, rms_s, norm_s = profiles(scene_strong)
    return LinearizationCheck(
        positions=grid, exact_weak=ew, linear_weak=lw,
        exact_strong=es, linear_strong=ls,
        rms_weak=rms_w, rms_strong=rms_s,
        normalized_rms_weak=norm_w, normalized_rms_strong=norm_s)


def run_lo_ratio_sweep(config: ScenarioConfig) -> SweepResult:
    """DoA RMSE versus LO-to-signal amplitude ratio.

    Every cell synthesizes through the full fluorescence pipeline: the
    analytic path is linearization-exact by construction and cannot show
    the weak-LO breakdown this sweep demonstrates.
    """
    values = config.sweep.values if config.sweep else LO_RATIO_GRID
    rmses, failures = [], []
    for idx, ratio in enumerate(values):
        cell = replace(
            config,
            scene=scenarios.with_lo_ratio(config.scene, float(ratio)),
            source=SIMULATED_FLUORESCENCE,
            base_seed=config.base_seed + CELL_SEED_STRIDE * idx,
            sweep=None)
        res = mc_rmse(cell)
        rmses.append(res.rmse_rad)
        failures.append(res.failures)
    return SweepResult(axis="lo_ratio", values=tuple(values),
                       rmse_rad=tuple(rmses), crlb_std_rad=None,
                       trials=config.trials, failures=tuple(failures))


SNR_PRESETS = {
    "single_15": (15.0,),
    "wide_pair": (-15.0, 15.0),
    "close_pair": (15.0, 20.0),
}


def run_snr_sweep(config: ScenarioConfig) -> dict[str, SweepResult]:
    """DoA RMSE versus SNR for one single-target and two two-target scenes.

    Synthesis uses the analytic channel model (matching the additive-noise
    model the CRLB is computed under); the lowest-SNR single-target cell
    repeats through the full fluorescence pipeline as a smoke check. The
    single-target sweep carries the CRLB overlay.
    """
    values = config.sweep.values if config.sweep else SNR_GRID_DB
    smoke_idx = int(np.argmin(values))
    results: dict[str, SweepResult] = {}
    for preset_idx, (name, angles) in enumerate(SNR_PRESETS.items()):
        scene = scenarios.scene_from_angles(
            angles, lo_ratio=scenarios.DEFAULT_LO_RATIO,
            carrier_freq=config.scene.carrier_freq,
            lo_angle=config.scene.lo.angle)
        n = len(angles)
        prony = replace(config.prony, model_order=2 * n, target_count=n)
        rmses, failures, bounds = [], [], []
        for idx, snr in enumerate(values):
            source = ANALYTIC_MODEL
            if name == "single_15" and idx == smoke_idx:
                source = SIMULATED_FLUORESCENCE  # smoke cell
            cell_seed = config.base_seed + CELL_SEED_STRIDE * (
                preset_idx * len(values) + idx)
            cell = replace(config, scene=scene, prony=prony,
                           snr_db=float(snr), source=source,
                           base_seed=cell_seed, sweep=None)
            res = mc_rmse(cell)
            rmses.append(res.rmse_rad)
            failures.append(res.failures)
            if name == "single_15":
                bounds.append(crlb_std_for(
                    cell.scene, cell.geometry, cell.params, float(snr))[0])
        results[name] = SweepResult(
            axis="snr_db", values=tuple(values), rmse_rad=tuple(rmses),
            crlb_std_rad=tuple(bounds) if bounds else None,
            trials=config.trials, failures=tuple(failures))
    return results


def crlb_std_for(scene: RfScene, geometry: SensorGeometry,
                 params: AtomicParams, snr_db: float | None = None,
                 sigma2: float | None = None) -> np.ndarray:
    """Angle-bound standard deviations; the noise variance comes either
    from an explicit sigma2 or from the SNR definition applied to the
    scene's own noiseless analytic measurement."""
    if sigma2 is None:
        if snr_db is None:
            raise ValueError("need snr_db or sigma2")
        clean = sensing.predicted_measurements(scene, geometry, params)
        sigma2 = sensing.signal_power(clean.values) / 10 ** (snr_db / 10)
    inputs = FimInputs(
        geometry=geometry, delta_ks=scene.delta_ks,
        delta_phis=scene.delta_phis,
        amplitudes=physics.modulation_amplitudes(params, scene),
        noise_cov=sigma2 * np.eye(geometry.channel_count))
    thetas = np.array([s.angle for s in scene.signals])
    return crlb_report(inputs, thetas, scene.wavenumber).per_target_std


def run_length_sweep(config: ScenarioConfig) -> dict[float, SweepResult]:
    """CRLB-derived RMSE versus cell length in RF wavelengths, one sweep
    per target bearing; channel count grows with the cell at fixed pitch.

    The noise level is set once per cell length from the broadside scene
    at the configured SNR and shared by all bearings, so the angle
    ordering reflects the estimation geometry rather than per-scene noise
    renormalization.
    """
    values = config.sweep.values if config.sweep else LENGTH_GRID_WL
    lam = config.scene.rf_wavelength
    snr = config.snr_db if config.snr_db is not None else 30.0

    def angle_scene(angle):
        return scenarios.scene_from_angles(
            (angle,), lo_ratio=scenarios.DEFAULT_LO_RATIO,
            carrier_freq=config.scene.carrier_freq,
            lo_angle=config.scene.lo.angle)

    sigma2_by_length = {}
    for length_wl in values:
        geometry = scenarios.default_geometry(
            lam, cell_wavelengths=float(length_wl))
        clean = sensing.predicted_measurements(angle_scene(0.0), geometry,
                                               config.params)
        sigma2_by_length[length_wl] = \
            sensing.signal_power(clean.values) / 10 ** (snr / 10)

    out: dict[float, SweepResult] = {}
    for angle in LENGTH_SWEEP_ANGLES_DEG:
        scene = angle_scene(angle)
        bounds = []
        for length_wl in values:
            geometry = scenarios.default_geometry(
                lam, cell_wavelengths=float(length_wl))
            bounds.append(crlb_std_for(
                scene, geometry, config.params,
                sigma2=sigma2_by_length[length_wl])[0])
        out[angle] = SweepResult(
            axis="cell_length", values=tuple(values),
            rmse_rad=tuple(np.full(len(values), np.nan)),
            crlb_std_rad=tuple(bounds), trials=0,
            failures=tuple([0] * len(values)))
    return out


def spectral_power(measurement: MeasurementVector, scene_meta,
                   angles_deg: np.ndarray) -> np.ndarray:
    """Matched-filter spectrum: |sum_j y_j exp(-i dk(theta) x_j)|^2 over a
    candidate bearing grid."""
    wavenumber, lo_angle = scene_meta
    centers = measurement.geometry.centers
    dks = wavenumber * (np.sin(lo_angle)
                        - np.sin(np.deg2rad(np.asarray(angles_deg))))
    steering = np.exp(-1j * dks[:, None] * centers[None, :])
    return np.abs(steering @ measurement.values) ** 2


def run_sampling_demo(config: ScenarioConfig) -> SamplingDemoResult:
    """Aliasing and window-null demonstrations on noiseless data.

    sampling_interval case: one target at 60 deg, swept window pitch;
    window_width case: one target at 0 deg, swept window width. Curves
    are normalized by the common maximum across the case so a suppressed
    target shows up as low power rather than being renormalized away.
    """
    axis = config.sweep.axis if config.sweep else "sampling_interval"
    lam = config.scene.rf_wavelength
    cell_wl = config.geometry.cell_length / lam
    angles_deg = np.arange(-90.0, 90.0 + DEMO_ANGLE_STEP_DEG / 2,
                           DEMO_ANGLE_STEP_DEG)
    if axis == "sampling_interval":
        target_deg = 60.0
        values = config.sweep.values if config.sweep else (0.25, 0.5)
        geometries = [scenarios.default_geometry(lam, cell_wavelengths=cell_wl,
                                                 spacing_wavelengths=v)
                      for v in values]
        labels = [f"dx_{v:g}wl" for v in values]
    elif axis == "window_width":
        target_deg = 0.0
        values = config.sweep.values if config.sweep else (0.25, 1.0)
        geometries = [scenarios.default_geometry(lam, cell_wavelengths=cell_wl,
                                                 window_wavelengths=v)
                      for v in values]
        labels = [f"width_{v:g}wl" for v in values]
    else:
        raise ValueError(f"sampling demo does not handle axis {axis!r}")
    scene = scenarios.scene_from_angles(
        (target_deg,), lo_ratio=scenarios.DEFAULT_LO_RATIO,
        carrier_freq=config.scene.carrier_freq,
        lo_angle=config.scene.lo.angle)
    meta = (scene.wavenumber, scene.lo.angle)
    raw = []
    for geometry in geometries:
        clean = sensing.predicted_measurements(scene, geometry,
                                               config.params)
        raw.append(spectral_power(clean, meta, angles_deg))
    common_max = max(float(p.max()) for p in raw)
    curves = tuple(
        SamplingDemoCurve(label=label, value_wavelengths=float(v),
                          power=p / common_max)
        for label, v, p in zip(labels, values, raw))
    return SamplingDemoResult(case=axis, angles_deg=angles_deg,
                              curves=curves)
