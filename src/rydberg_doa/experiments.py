"""Monte Carlo harness and the desk-scale simulation studies.

SWEEP_KINDS lists the studies of each sweep axis; run_sweep runs the
configured one, and every bound comes from bound_report. A length or
sampling sweep runs the configured geometry with the swept length
replaced. Each runner is deterministic for a fixed (config, base_seed):
trial t of a cell draws its noise with seed cell_seed + t, and cell c of
a sweep has cell_seed = base_seed + CELL_SEED_STRIDE * c, counting the
cells of run_snr_sweep preset by preset. _mc_sweep, the Monte Carlo
engine of mc_rmse, run_lo_ratio_sweep and run_snr_sweep, is the only
code that applies this rule. Seed streams stay apart while a cell has
fewer than CELL_SEED_STRIDE trials, which config parsing enforces. All
trials of a cell draw their noise as one stack (its seeds hashed in one
vectorised pass, each row bit-identical to the single-seed draw; see
sensing.standard_normal_rows). Two stacking rules, both exact row by
row, make a sweep's cells share work:
- synthesis: the analytic model per cell or, for the cells of an
  LO-ratio sweep (which differ only in LO amplitude), one fluorescence
  readout of all of them as a stack (synthesize);
- estimation: the noise stacks of all cells that share a prediction
  system (Prony config, channel count, window pitch, carrier wavenumber
  and LO bearing) run as one batched estimate of at most MC_STACK_ROWS
  rows, never splitting a cell.
Each row equals the readout or solve of its cell alone, so every cell's
result does too. Trial failures (estimation errors) are counted per
cell, never silently dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import physics, scenarios, sensing
from .crlb import CrlbReport, FimInputs, crlb_report
from .errors import ConfigParseError, RydbergDoaError
# estimate_doa stays bound here: perfbench's tracer wraps it at every
# binding and its self-test expects this one.
from .estimation import (  # noqa: F401
    PronyConfig,
    estimate_doa,
    estimate_doa_batch,
)
from .physics import AtomicParams, RfScene
from .sensing import MeasurementVector, SensorGeometry

# The studies each sweep axis can run, its default first.
SWEEP_KINDS = {
    "lo_ratio": ("rmse", "linearization_check"),
    "snr_db": ("rmse",),
    "cell_length": ("crlb_length",),
    "sampling_interval": ("sampling_demo",),
    "window_width": ("sampling_demo",),
}

CELL_SEED_STRIDE = 1_000_000

# Rows of one batched Prony solve shared by several Monte Carlo cells; it
# bounds the stacked noise samples held at once.
MC_STACK_ROWS = 4096

DEMO_ANGLE_STEP_DEG = 0.25

LENGTH_SWEEP_ANGLES_DEG = (0.0, 30.0, 60.0)


@dataclass(frozen=True)
class SweepSpec:
    """Axis, values and study (None: the axis's default) of a sweep."""

    axis: str
    values: tuple
    kind: str | None = None

    def __post_init__(self):
        if not isinstance(self.axis, str) or self.axis not in SWEEP_KINDS:
            raise ValueError(
                f"'sweep.axis' must be one of {', '.join(SWEEP_KINDS)}")
        kinds = SWEEP_KINDS[self.axis]
        kind = kinds[0] if self.kind is None else self.kind
        if kind not in kinds:
            raise ValueError(f"'sweep.kind' {kind!r} does not apply to axis "
                             f"{self.axis!r} (allowed: {', '.join(kinds)})")
        values = tuple(self.values)
        for i, value in enumerate(values):
            if self.axis == "snr_db":
                try:
                    sensing.snr_ratio(value)
                except ValueError as exc:
                    raise ValueError(f"'sweep.values[{i}]': {exc}") from None
            elif not value > 0:
                raise ValueError(f"'sweep.values[{i}]' must be positive")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)


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
    sweep: SweepSpec | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class McResult:
    """Per-cell Monte Carlo outcome: the RMSE is over all N targets of the
    successful trials, N the scene's signal count."""

    rmse_rad: float
    failures: int


@dataclass(frozen=True)
class SweepResult:
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
    power: np.ndarray  # normalized to the common max across the case


@dataclass(frozen=True)
class SamplingDemoResult:
    case: str
    angles_deg: np.ndarray
    curves: tuple


def synthesize(cells: list[ScenarioConfig],
               fluorescence: bool) -> list[MeasurementVector]:
    """Noiseless measurement vector of each cell: the analytic model per
    cell or, with fluorescence, one readout of all cells as a stack on the
    first cell's geometry and atomic parameters; their scenes must differ
    only in LO amplitude (physics.scene_stack). Each row equals the
    readout of its cell alone."""
    if not fluorescence:
        return [sensing.predicted_measurements(c.scene, c.geometry, c.params)
                for c in cells]
    first = cells[0]
    stack = sensing.simulate_measurements([c.scene for c in cells],
                                          first.geometry, first.params)
    return [replace(stack, values=values) for values in stack.values]


def match_errors(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-target absolute angle errors under minimum-total-error pairing.

    estimated is one (N,) row or a (T, N) stack, paired row by row with
    the N truths, so every target is scored; N errors per row, in
    estimate order. Pairings are tried in itertools.permutations order and
    a tie keeps the first.
    """
    cost = np.abs(np.asarray(estimated, dtype=float)[..., :, None]
                  - np.asarray(truth, dtype=float))
    n = cost.shape[-1]
    if cost.shape[-2] != n:
        raise ValueError(f"need one estimate per truth, got "
                         f"{cost.shape[-2]} for {n}")
    best = best_total = None
    for perm in itertools.permutations(range(n)):
        errors = cost[..., np.arange(n), perm]
        total = errors.sum(axis=-1)
        if best is None:
            best, best_total = errors, total
            continue
        better = total < best_total
        best = np.where(better[..., None], errors, best)
        best_total = np.where(better, total, best_total)
    return best


def mc_rmse(scenario: ScenarioConfig) -> McResult:
    """Monte Carlo RMSE of the DoA estimate for one scenario cell: the
    one-cell case of _mc_sweep, so trial t draws its noise with seed
    base_seed + t."""
    return _mc_sweep(scenario, ({},))[0]


def run_linearization_check(params: AtomicParams, scene_weak: RfScene,
                            scene_strong: RfScene,
                            grid: np.ndarray) -> LinearizationCheck:
    """Exact vs linearized absorption profiles for a weak/strong LO pair.

    The scenes must share their signals and differ only in LO amplitude.
    Residual RMS values are reported both raw and normalized by each
    regime's total modulation amplitude, the scale on which the
    1/ratio error model is comparable across LO levels.
    """
    grid = np.asarray(grid, dtype=float)
    ew, es = physics.absorption_exact(params, [scene_weak, scene_strong],
                                      grid)

    def profiles(scene, exact):
        linear = physics.absorption_linearized(params, scene, grid)
        rms = float(np.sqrt(np.mean((exact - linear) ** 2)))
        mods = float(np.abs(physics.modulation_amplitudes(params,
                                                          scene)).sum())
        return linear, rms, (rms / mods if mods > 0 else 0.0)

    lw, rms_w, norm_w = profiles(scene_weak, ew)
    ls, rms_s, norm_s = profiles(scene_strong, es)
    return LinearizationCheck(
        positions=grid, exact_weak=ew, linear_weak=lw,
        exact_strong=es, linear_strong=ls,
        rms_weak=rms_w, rms_strong=rms_s,
        normalized_rms_weak=norm_w, normalized_rms_strong=norm_s)


def _mc_sweep(config: ScenarioConfig, cells,
              fluorescence: bool = False) -> list[McResult]:
    """Monte Carlo outcome of each cell: cells yields the ScenarioConfig
    fields each cell overrides, and cell c runs at base_seed +
    CELL_SEED_STRIDE * c.

    Each cell is synthesized once (the scene is deterministic), by the
    analytic model or, with fluorescence, in one fluorescence stack
    (synthesize), and draws its (trials, K) noise stack. The stacks of
    cells that share a prediction system (Prony config, channel count,
    window pitch, carrier wavenumber and LO bearing) run as one batched
    Prony solve of at most MC_STACK_ROWS rows; a cell is never split,
    and a larger one runs alone. Rows are
    independent, so each cell gets the result of its own solve. A cell
    whose noise draw raises a domain error fails whole. A cell whose
    prony.target_count differs from its scene's signal count is a config
    error before any synthesis: its RMSE would not score every target.
    """
    seeded = [replace(config, sweep=None,
                      base_seed=config.base_seed + CELL_SEED_STRIDE * c,
                      **overrides) for c, overrides in enumerate(cells)]
    for cell in seeded:
        if cell.prony.target_count != cell.scene.n_signals:
            raise ConfigParseError(
                f"'prony.target_count' must equal the scene's signal count "
                f"{cell.scene.n_signals}, got {cell.prony.target_count}")
    clean = synthesize(seeded, fluorescence)
    # Cells grouped by everything estimate_doa_batch reads besides values.
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(seeded):
        groups.setdefault((cell.prony, cell.geometry.channel_count,
                           cell.geometry.spacing, cell.scene.wavenumber,
                           cell.scene.lo.angle), []).append(i)
    results: list = [None] * len(seeded)
    for members in groups.values():
        stack, rows = [], 0
        for i in members:
            if stack and rows + seeded[i].trials > MC_STACK_ROWS:
                _solve_stack(seeded, stack, results)
                stack, rows = [], 0
            values = _trial_values(seeded[i], clean[i])
            if values is None:
                results[i] = McResult(rmse_rad=np.inf,
                                      failures=seeded[i].trials)
            else:
                stack.append((i, values))
                rows += len(values)
        if stack:
            _solve_stack(seeded, stack, results)
    return results


def _trial_values(cell: ScenarioConfig,
                  clean: MeasurementVector) -> np.ndarray | None:
    """The cell's (trials, K) noisy samples of its clean vector; None when
    the noise draw raises a domain error (a scene without signal power)."""
    if cell.snr_db is None:
        return np.broadcast_to(clean.values, (cell.trials, len(clean.values)))
    try:
        return sensing.add_noise(clean, cell.snr_db, range(
            cell.base_seed, cell.base_seed + cell.trials)).values
    except RydbergDoaError:
        return None


def _solve_stack(cells: list, stack: list, results: list) -> None:
    """One batched estimate of the (cell index, values) stack, whose cells
    share a prediction system; each cell's rows give its results entry."""
    first = cells[stack[0][0]]
    values = stack[0][1] if len(stack) == 1 else \
        np.concatenate([v for _, v in stack])
    try:
        batch = estimate_doa_batch(
            MeasurementVector(values=values, geometry=first.geometry),
            (first.scene.wavenumber, first.scene.lo.angle), first.prony)
    except RydbergDoaError:
        # Only an order K cannot support, which every cell here shares.
        for i, v in stack:
            results[i] = McResult(rmse_rad=np.inf, failures=len(v))
        return
    ok = ~batch.failed
    start = 0
    for i, v in stack:
        rows = slice(start, start + len(v))
        start = rows.stop
        kept = ok[rows]
        # Raveled: the mean of the 2-D array would sum in another order.
        errors = match_errors(batch.doas[rows][kept],
                              scenarios.true_doas(cells[i].scene)).ravel()
        rmse = float(np.sqrt((errors ** 2).mean())) if errors.size else np.inf
        results[i] = McResult(rmse_rad=rmse,
                              failures=len(v) - int(kept.sum()))


def _sweep_result(config: ScenarioConfig, results: list) -> SweepResult:
    return SweepResult(
        values=config.sweep.values, crlb_std_rad=None, trials=config.trials,
        rmse_rad=tuple(r.rmse_rad for r in results),
        failures=tuple(r.failures for r in results))


def _preset_scene(config: ScenarioConfig, angles_deg) -> RfScene:
    """Targets at the given bearings at the default LO ratio, on the
    configured carrier and LO bearing."""
    return scenarios.scene_from_angles(
        angles_deg, lo_ratio=scenarios.DEFAULT_LO_RATIO,
        carrier_freq=config.scene.carrier_freq,
        lo_angle=config.scene.lo.angle)


def _axis_geometries(config: ScenarioConfig, field: str) -> list:
    """The configured geometry with field set to each sweep value, in RF
    wavelengths; a value that leaves no room for two windows is a config
    error naming it."""
    geometries = []
    for i, value in enumerate(config.sweep.values):
        try:
            geometries.append(replace(
                config.geometry,
                **{field: value * config.scene.rf_wavelength}))
        except ValueError as exc:
            raise ConfigParseError(f"'sweep.values[{i}]': {exc}") from exc
    return geometries


def run_lo_ratio_sweep(config: ScenarioConfig) -> SweepResult:
    """DoA RMSE versus LO-to-signal amplitude ratio.

    Every cell synthesizes through the full fluorescence pipeline: the
    analytic path is linearization-exact by construction and cannot show
    the weak-LO breakdown this sweep demonstrates.
    """
    return _sweep_result(config, _mc_sweep(config, (
        {"scene": scenarios.with_lo_ratio(config.scene, float(ratio))}
        for ratio in config.sweep.values), fluorescence=True))


SNR_PRESETS = {
    "single_15": (15.0,),
    "wide_pair": (-15.0, 15.0),
    "close_pair": (15.0, 20.0),
}


def run_snr_sweep(config: ScenarioConfig) -> dict[str, SweepResult]:
    """DoA RMSE versus SNR for one single-target and two two-target scenes.

    Synthesis uses the analytic channel model, matching the additive-noise
    model the CRLB is computed under. The single-target sweep carries the
    CRLB overlay.
    """
    values = config.sweep.values
    scenes, cells = {}, []
    for name, angles in SNR_PRESETS.items():
        scenes[name] = scene = _preset_scene(config, angles)
        n = len(angles)
        prony = replace(config.prony, model_order=2 * n, target_count=n)
        cells += [{"scene": scene, "prony": prony, "snr_db": float(snr)}
                  for snr in values]
    mc = _mc_sweep(config, cells)
    results: dict[str, SweepResult] = {}
    for preset_idx, (name, scene) in enumerate(scenes.items()):
        result = _sweep_result(config, mc[preset_idx * len(values):
                                          (preset_idx + 1) * len(values)])
        if name == "single_15":
            result = replace(result, crlb_std_rad=tuple(
                crlb_std_for(scene, config.geometry, config.params,
                             float(snr))[0] for snr in values))
        results[name] = result
    return results


def required_snr(config: ScenarioConfig) -> float:
    """The configured SNR of a bound; a config error when it is unset."""
    if config.snr_db is None:
        raise ConfigParseError("missing required key 'noise.snr_db' "
                               "(the bound needs a noise level)")
    return config.snr_db


def bound_report(scene: RfScene, geometry: SensorGeometry,
                 params: AtomicParams, snr_db: float | None = None,
                 sigma2: float | None = None) -> CrlbReport:
    """Angle-domain CRLB report at noise variance sigma2 or, given snr_db
    instead, sensing.noise_variance of the noiseless analytic measurement.
    Scenes whose FIM is singular (targets sharing a beat wavenumber or at
    the LO bearing, zero-amplitude targets) raise a domain error."""
    if (snr_db is None) == (sigma2 is None):
        raise ValueError("give exactly one of snr_db and sigma2")
    if not scene.is_identifiable():
        raise RydbergDoaError("targets share a beat wavenumber or sit at "
                              "the LO bearing: the bound is undefined")
    if sigma2 is None:
        sensing.require_signal(scene)
        clean = sensing.predicted_measurements(scene, geometry, params)
        sigma2 = sensing.noise_variance(clean.values, snr_db)
    try:
        inputs = FimInputs(
            geometry=geometry, delta_ks=scene.delta_ks,
            delta_phis=scene.delta_phis,
            amplitudes=physics.modulation_amplitudes(params, scene),
            sigma2=sigma2)
    except ValueError as exc:
        raise RydbergDoaError(str(exc)) from exc
    thetas = np.array([s.angle for s in scene.signals])
    return crlb_report(inputs, thetas, scene.wavenumber)


def crlb_std_for(scene: RfScene, geometry: SensorGeometry,
                 params: AtomicParams, snr_db: float | None = None,
                 sigma2: float | None = None) -> np.ndarray:
    """Per-target angle-bound standard deviations of bound_report."""
    return bound_report(scene, geometry, params, snr_db,
                        sigma2).per_target_std


def run_length_sweep(config: ScenarioConfig) -> dict[float, SweepResult]:
    """CRLB-derived RMSE versus cell length in RF wavelengths on the
    configured geometry, one sweep per target bearing; channel count grows
    with the cell at the configured pitch.

    The noise level is set once per cell length from the broadside scene
    at the configured SNR and shared by all bearings, so the angle
    ordering reflects the estimation geometry rather than per-scene noise
    renormalization.
    """
    values = config.sweep.values
    snr = required_snr(config)
    geometries = _axis_geometries(config, "cell_length")
    broadside = _preset_scene(config, (0.0,))
    sigma2s = [sensing.noise_variance(sensing.predicted_measurements(
        broadside, geometry, config.params).values, snr)
        for geometry in geometries]
    out: dict[float, SweepResult] = {}
    for angle in LENGTH_SWEEP_ANGLES_DEG:
        scene = _preset_scene(config, (angle,))
        out[angle] = SweepResult(
            values=values, rmse_rad=tuple(np.full(len(values), np.nan)),
            crlb_std_rad=tuple(
                crlb_std_for(scene, geometry, config.params,
                             sigma2=sigma2)[0]
                for geometry, sigma2 in zip(geometries, sigma2s)),
            trials=0, failures=(0,) * len(values))
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
    """Aliasing and window-null demonstrations on the configured scene's
    noiseless analytic measurements.

    sampling_interval case: the configured geometry with its window pitch
    swept; window_width case: with its window width swept. Curves are
    normalized by the common maximum across the case so a suppressed
    target shows up as low power rather than being renormalized away. A
    scene whose targets have no amplitude is a domain error.
    """
    scene = config.scene
    sensing.require_signal(scene)
    axis = config.sweep.axis
    label, field = (("dx", "spacing") if axis == "sampling_interval"
                    else ("width", "window_width"))
    geometries = _axis_geometries(config, field)
    angles_deg = np.arange(-90.0, 90.0 + DEMO_ANGLE_STEP_DEG / 2,
                           DEMO_ANGLE_STEP_DEG)
    meta = (scene.wavenumber, scene.lo.angle)
    raw = [spectral_power(sensing.predicted_measurements(
        scene, geometry, config.params), meta, angles_deg)
        for geometry in geometries]
    common_max = max(float(p.max()) for p in raw)
    curves = tuple(
        SamplingDemoCurve(label=f"{label}_{v:g}wl", power=p / common_max)
        for v, p in zip(config.sweep.values, raw))
    return SamplingDemoResult(case=axis, angles_deg=angles_deg,
                              curves=curves)


def run_sweep(config: ScenarioConfig) -> dict:
    """Run the configured sweep study: {output file stem: result}, in the
    order the files are written."""
    sweep = config.sweep
    if sweep.kind == "linearization_check":
        ratios = sorted(sweep.values)
        return {"linearization_check": run_linearization_check(
            config.params, scenarios.with_lo_ratio(config.scene, ratios[0]),
            scenarios.with_lo_ratio(config.scene, ratios[-1]),
            config.geometry.grid(config.scene.rf_wavelength))}
    if sweep.kind == "crlb_length":
        return {f"length_sweep_theta{angle:g}": result
                for angle, result in run_length_sweep(config).items()}
    if sweep.kind == "sampling_demo":
        result = run_sampling_demo(config)
        return {f"sampling_demo_{result.case}": result}
    if sweep.axis == "lo_ratio":
        return {"lo_ratio_sweep": run_lo_ratio_sweep(config)}
    return {f"snr_sweep_{name}": result
            for name, result in run_snr_sweep(config).items()}
