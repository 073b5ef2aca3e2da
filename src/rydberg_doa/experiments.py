"""Monte Carlo harness and the desk-scale simulation studies.

SWEEP_KINDS lists the studies of each sweep axis, the table every
SweepSpec is checked against; each study's runner returns its result. Every
bound comes from crlb.crlb_report_batch: one cell's through bound_report,
and all cells of a length sweep in one call, which each equal
crlb_report of their own Jacobian bit for bit. A length or sampling sweep
runs the configured geometry with the swept length replaced. Each runner is
deterministic for a fixed (config, base_seed): trial t of a cell draws
its noise with seed cell_seed + t, and cell c of a sweep has cell_seed =
base_seed + CELL_SEED_STRIDE * c, counting the cells of run_snr_sweep
preset by preset. _mc_sweep, the Monte Carlo engine of mc_rmse,
run_lo_ratio_sweep and run_snr_sweep, is the only code that applies this
rule. Seed streams stay apart while a cell has fewer than
CELL_SEED_STRIDE trials, which config parsing enforces. All trials of a
cell draw their noise as one stack through sensing.add_noise, a noiseless
cell (snr_db None) at +inf dB, each row bit-identical to the single-seed
draw (see sensing.NOISE_BLOCK_ROWS). Each runner makes one synthesis call:
mc_rmse and each preset of run_snr_sweep one analytic vector,
run_lo_ratio_sweep one fluorescence readout with a row per LO amplitude.
One stacking rule makes a sweep's cells share the solve: the noise
stacks of consecutive cells that share a prediction system (Prony
config, channel count, window pitch, carrier wavenumber and LO bearing)
run as one batched estimate of at most MC_STACK_ROWS rows, never
splitting a cell. Each row of a readout or a solve equals that of its
cell alone, so every cell's result does too. Trial failures (rows of the
estimate whose failure code is not OK) are counted per cell, never
silently dropped.

A bound's Jacobian comes from sensing.analytic_model, whose one call in
bound_report also gives the values an SNR is referenced to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import physics, scenarios, sensing
from .crlb import CrlbReport, crlb_report, crlb_report_batch
from .errors import ConfigParseError, RydbergDoaError, build_at, read_only_copy
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
    """Axis, values and kind (None: the axis's default), per SWEEP_KINDS."""

    axis: str
    values: tuple
    kind: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.axis not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep axis {self.axis!r} "
                             f"(allowed: {', '.join(SWEEP_KINDS)})")
        if self.kind is None:
            object.__setattr__(self, "kind", SWEEP_KINDS[self.axis][0])
        elif self.kind not in SWEEP_KINDS[self.axis]:
            raise ValueError(f"no {self.kind!r} sweep on axis {self.axis!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo cell (or a sweep template when sweep is set)."""

    scene: RfScene
    geometry: SensorGeometry
    prony: PronyConfig
    params: AtomicParams
    snr_db: float | None
    trials: int = 100
    base_seed: int = 0
    sweep: SweepSpec | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class McResult:
    """Per-cell Monte Carlo outcome of its trials: the RMSE is over all N
    targets of the successful ones, N the scene's signal count."""

    rmse_rad: float
    failures: int
    trials: int


@dataclass(frozen=True)
class SweepResult:
    """One McResult per axis value, and the bound's std at each (or None)."""

    values: tuple
    cells: tuple
    crlb_std_rad: tuple | None


@dataclass(frozen=True)
class LinearizationCheck:
    """Exact vs linearized absorption at a weak and a strong LO ratio."""

    positions: np.ndarray
    exact_weak: np.ndarray
    linear_weak: np.ndarray
    exact_strong: np.ndarray
    linear_strong: np.ndarray
    # RMS residual over the regime's total modulation amplitude
    residual_weak: float
    residual_strong: float
    ratio_weak: float
    ratio_strong: float

    def __post_init__(self):
        for name in ("positions", "exact_weak", "linear_weak",
                     "exact_strong", "linear_strong"):
            object.__setattr__(self, name,
                               read_only_copy(getattr(self, name), float))

    @property
    def residual_ratio(self) -> float:
        """Weak-to-strong ratio of modulation-normalized RMS residuals."""
        if self.residual_strong == 0:
            return np.nan
        return self.residual_weak / self.residual_strong


@dataclass(frozen=True)
class SamplingDemoResult:
    angles_deg: np.ndarray
    labels: tuple
    power: np.ndarray  # (curves, angles), over the common max of the case

    def __post_init__(self):
        for name in ("angles_deg", "power"):
            object.__setattr__(self, name,
                               read_only_copy(getattr(self, name), float))


# Pairings match_errors scores at once: 6! = 720, so up to six targets
# take one chunk, and the costs held stay (MATCH_CHUNK, T, N) at any N.
MATCH_CHUNK = 720


def match_errors(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-target absolute angle errors under minimum-total-error pairing.

    estimated is one (N,) row or a (T, N) stack, paired row by row with
    the N truths, so every target is scored; N errors per row, in
    estimate order. All N! pairings are tried, in itertools.permutations
    order and MATCH_CHUNK at a time, and a tie keeps the first: a later
    chunk replaces a row's best only with a strictly smaller total.
    """
    cost = np.abs(np.asarray(estimated, dtype=float)[..., :, None]
                  - np.asarray(truth, dtype=float))
    n = cost.shape[-1]
    if cost.shape[-2] != n:
        raise ValueError(f"need one estimate per truth, got "
                         f"{cost.shape[-2]} for {n}")
    flat = cost.reshape(math.prod(cost.shape[:-2]), n, n)
    rows, perms = np.arange(len(flat)), itertools.permutations(range(n))
    best = total = None
    while chunk := list(itertools.islice(perms, MATCH_CHUNK)):
        # (pairings, rows, n), C-ordered, so each total sums as one row
        errors = flat[rows[:, None], np.arange(n), np.array(chunk)[:, None]]
        sums = errors.sum(axis=-1)
        pick = sums.argmin(axis=0)
        errors, sums = errors[pick, rows], sums[pick, rows]
        if total is not None:
            kept = ~(sums < total)
            errors[kept], sums[kept] = best[kept], total[kept]
        best, total = errors, sums
    return best.reshape(cost.shape[:-1])


def mc_rmse(scenario: ScenarioConfig) -> McResult:
    """Monte Carlo RMSE of the DoA estimate for one scenario cell from one
    analytic vector: the one-cell case of _mc_sweep, so trial t draws its
    noise with seed base_seed + t."""
    clean = sensing.predicted_measurements(
        scenario.scene, scenario.geometry, scenario.params).values
    return _mc_sweep(scenario, [({}, clean)])[0]


def run_linearization_check(config: ScenarioConfig) -> LinearizationCheck:
    """Exact vs linearized absorption profiles of the configured scene on
    its geometry's grid, the LO at the smallest (weak) and the largest
    (strong) swept ratio; the exact ones are the rows of one call. Each
    residual RMS is over its regime's total modulation amplitude, the scale
    on which the 1/ratio error model is comparable across LO levels.
    """
    ratios = (min(config.sweep.values), max(config.sweep.values))
    regimes = [scenarios.with_lo_ratio(config.scene, r) for r in ratios]
    grid = config.geometry.grid(config.scene.rf_wavelength)
    exact = physics.absorption_exact(config.params, config.scene, grid,
                                     [at.lo.amplitude for at in regimes])
    profiles = []
    for at, row in zip(regimes, exact):
        if not np.isfinite(row).all():
            raise RydbergDoaError("exact absorption values must be finite")
        mods = physics.modulation_amplitudes(config.params, at)
        linear = physics.absorption_linearized(config.params, at, grid, mods)
        with np.errstate(over="ignore"):  # raised as OverflowError below
            rms = float(np.sqrt(np.mean((row - linear) ** 2)))
        if rms == np.inf:
            raise OverflowError("the residual is out of the float range")
        total = float(np.abs(mods).sum())
        profiles.append((linear, rms / total if total > 0 else 0.0))
    (linear_weak, residual_weak), (linear_strong, residual_strong) = profiles
    return LinearizationCheck(
        positions=grid, exact_weak=exact[0], linear_weak=linear_weak,
        exact_strong=exact[1], linear_strong=linear_strong,
        residual_weak=residual_weak, residual_strong=residual_strong,
        ratio_weak=ratios[0], ratio_strong=ratios[1])


def _mc_sweep(config: ScenarioConfig, cells) -> list[McResult]:
    """Monte Carlo outcome of each cell: cells yields (overrides, clean)
    pairs, the ScenarioConfig fields the cell overrides and its noiseless
    values (K,), and cell c runs at base_seed + CELL_SEED_STRIDE * c.

    One pass over the cells, in order: each draws its (trials, K) noise
    stack by sensing.add_noise, at +inf dB when snr_db is None, and fails
    whole if the draw raises a domain error. Consecutive cells that share
    a prediction system run as one batched Prony solve (see the module
    docstring); a cell is never split, and one of more than MC_STACK_ROWS
    trials runs alone. A cell whose prony.target_count differs from its
    scene's signal count is a config error before the cell's own draw: its
    RMSE would not score every target.
    """
    results, stack, rows, system = [], [], 0, None
    for c, (overrides, clean) in enumerate(cells):
        cell = replace(config, sweep=None, **overrides,
                       base_seed=config.base_seed + CELL_SEED_STRIDE * c)
        if cell.prony.target_count != cell.scene.n_signals:
            raise ConfigParseError(
                f"'prony.target_count' must equal the scene's signal count "
                f"{cell.scene.n_signals}, got {cell.prony.target_count}")
        clean = MeasurementVector(values=clean, geometry=cell.geometry)
        try:
            values = sensing.add_noise(
                clean, np.inf if cell.snr_db is None else cell.snr_db,
                range(cell.base_seed, cell.base_seed + cell.trials)).values
        except RydbergDoaError:  # no signal power, or infinite noise
            values = None
        # Everything estimate_doa_batch reads besides the values.
        key = (cell.prony, cell.geometry.channel_count, cell.geometry.spacing,
               cell.scene.wavenumber, cell.scene.lo.angle)
        if key != system or rows + cell.trials > MC_STACK_ROWS:
            results += _solve_stack(stack)
            stack, rows, system = [], 0, key
        stack.append((cell, values))
        rows += 0 if values is None else cell.trials
    return results + _solve_stack(stack)


def _solve_stack(stack: list) -> list[McResult]:
    """Each McResult of the (cell, values) stack, whose cells share a
    prediction system, from one batched estimate. A cell without values
    fails every trial, as does every cell of a stack the estimate rejects
    whole."""
    drawn = [values for _, values in stack if values is not None]
    batch = None
    if drawn:
        first = stack[0][0]
        try:
            batch = estimate_doa_batch(
                MeasurementVector(values=np.concatenate(drawn),
                                  geometry=first.geometry),
                (first.scene.wavenumber, first.scene.lo.angle), first.prony)
        except RydbergDoaError:
            pass  # only an order K cannot support, which every cell shares
    results, start = [], 0
    for cell, values in stack:
        if batch is None or values is None:
            results.append(McResult(np.inf, cell.trials, cell.trials))
            continue
        rows = slice(start, start + cell.trials)
        start = rows.stop
        kept = ~batch.failed[rows]
        # Raveled: the mean of the 2-D array would sum in another order.
        errors = match_errors(batch.doas[rows][kept],
                              scenarios.true_doas(cell.scene)).ravel()
        rmse = float(np.sqrt((errors ** 2).mean())) if errors.size else np.inf
        results.append(McResult(rmse, cell.trials - int(kept.sum()),
                                cell.trials))
    return results


def _preset_scene(config: ScenarioConfig, angles_deg) -> RfScene:
    """Targets at the given bearings at the default LO ratio, on the
    configured carrier and LO bearing."""
    return scenarios.scene_from_angles(
        angles_deg, carrier_freq=config.scene.carrier_freq,
        lo_angle=config.scene.lo.angle)


def _axis_geometries(config: ScenarioConfig, field: str) -> list:
    """The configured geometry with field set to each sweep value, in RF
    wavelengths; a value that leaves no room for two windows is a config
    error naming it."""
    return [build_at(f"sweep.values[{i}]", replace, config.geometry,
                     **{field: value * config.scene.rf_wavelength})
            for i, value in enumerate(config.sweep.values)]


def run_lo_ratio_sweep(config: ScenarioConfig) -> SweepResult:
    """DoA RMSE versus LO-to-signal amplitude ratio.

    Each cell is a row of one fluorescence readout over the LO amplitudes,
    on the configured scene: the analytic path is linearization-exact by
    construction and cannot show the weak-LO breakdown this sweep shows.
    """
    readout = sensing.simulate_measurements(
        config.scene, config.geometry, config.params,
        [scenarios.with_lo_ratio(config.scene, float(ratio)).lo.amplitude
         for ratio in config.sweep.values])
    return SweepResult(config.sweep.values, tuple(_mc_sweep(
        config, (({}, row) for row in readout.values))), None)


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
    scenes = {name: _preset_scene(config, angles)
              for name, angles in SNR_PRESETS.items()}
    cells = []
    for scene in scenes.values():
        clean = sensing.predicted_measurements(scene, config.geometry,
                                               config.params).values
        prony = replace(config.prony, model_order=2 * scene.n_signals,
                        target_count=scene.n_signals)
        cells += [({"scene": scene, "snr_db": float(snr), "prony": prony},
                   clean) for snr in values]
    mc = iter(_mc_sweep(config, cells))
    return {name: SweepResult(
        values, tuple(next(mc) for _ in values),
        tuple(crlb_std_for(scene, config.geometry, config.params,
                           float(snr))[0] for snr in values)
        if name == "single_15" else None) for name, scene in scenes.items()}


def required_snr(config: ScenarioConfig) -> float:
    """The configured SNR of a bound; a config error when it is unset."""
    if config.snr_db is None:
        raise ConfigParseError("missing required key 'noise.snr_db' "
                               "(the bound needs a noise level)")
    return config.snr_db


def _bound_amplitudes(scene: RfScene, params: AtomicParams) -> np.ndarray:
    """The targets' modulation amplitudes; raises bound_report's errors."""
    if not scene.is_identifiable():
        raise RydbergDoaError("targets share a beat wavenumber or sit at "
                              "the LO bearing: the bound is undefined")
    sensing.require_signal(scene)
    with np.errstate(over="ignore"):  # inf fails the bound's sigma^2 check
        amplitudes = physics.modulation_amplitudes(params, scene)
    if (amplitudes == 0).any():
        raise RydbergDoaError("zero-amplitude targets make the FIM singular")
    return amplitudes


def bound_report(scene: RfScene, geometry: SensorGeometry,
                 params: AtomicParams, snr_db: float) -> CrlbReport:
    """Angle-domain CRLB report at the noise variance sensing.noise_variance
    gives the noiseless analytic measurement at snr_db. A scene without
    signal, or whose FIM is singular (targets sharing a beat wavenumber or
    at the LO bearing, zero-amplitude targets), raises a domain error."""
    values, jacobian = sensing.analytic_model(
        geometry, scene.delta_ks, scene.delta_phis,
        _bound_amplitudes(scene, params))
    return crlb_report(jacobian, sensing.noise_variance(values, snr_db),
                       [s.angle for s in scene.signals], scene.wavenumber)


def crlb_std_for(scene: RfScene, geometry: SensorGeometry,
                 params: AtomicParams, snr_db: float) -> np.ndarray:
    """Per-target angle-bound standard deviations of bound_report."""
    return bound_report(scene, geometry, params, snr_db).per_target_std


def run_length_sweep(config: ScenarioConfig) -> dict[float, SweepResult]:
    """CRLB-derived RMSE versus cell length in RF wavelengths on the
    configured geometry, one sweep per target bearing; channel count grows
    with the cell at the configured pitch.

    The noise level is set once per cell length from the broadside scene
    at the configured SNR and shared by all bearings, so the angle
    ordering reflects the estimation geometry rather than per-scene noise
    renormalization.

    A cell's K windows are the longest cell's first K, so one batched
    call, later channels zeroed, gives each cell crlb_report's bits on its
    own Jacobian. On a domain error the cells of the scenes checked so far
    replay in order, so the first failing cell raises its own error.
    """
    snr = required_snr(config)
    geometries = _axis_geometries(config, "cell_length")
    counts = np.array([geometry.channel_count for geometry in geometries])
    longest = geometries[int(counts.argmax())]
    scenes = [_preset_scene(config, (a,)) for a in LENGTH_SWEEP_ANGLES_DEG]
    broadside = sensing.predicted_measurements(  # the first bearing is 0
        scenes[0], longest, config.params).values
    sigma2s = [sensing.noise_variance(broadside[:k], snr) for k in counts]
    rows = []
    try:
        for s in scenes:
            rows.append((s.delta_ks, s.delta_phis,
                         _bound_amplitudes(s, config.params)))
        if counts.min() < 3:  # zeroed channels would hide K < 3N: replay
            raise RydbergDoaError("a cell has fewer channels than unknowns")
        kept = np.arange(counts.max())[:, None] < counts[:, None, None]
        stds = crlb_report_batch(
            np.where(kept, sensing.analytic_model(
                longest, *zip(*rows))[1][:, None], 0.0),
            sigma2s, [[[s.signals[0].angle]] for s in scenes],
            scenes[0].wavenumber).per_target_std[..., 0]
    except RydbergDoaError:
        for scene, row in zip(scenes, rows):
            jacobian = sensing.analytic_model(longest, *row)[1]
            for k, sigma2 in zip(counts, sigma2s):
                crlb_report(jacobian[:k], sigma2, [scene.signals[0].angle],
                            scene.wavenumber)
        raise
    cells = (McResult(np.nan, 0, 0),) * len(counts)
    return {angle: SweepResult(config.sweep.values, cells, tuple(row))
            for angle, row in zip(LENGTH_SWEEP_ANGLES_DEG, stds)}


def run_sampling_demo(config: ScenarioConfig) -> SamplingDemoResult:
    """Aliasing and window-null demonstrations on the configured scene's
    noiseless analytic measurements y: matched-filter spectra
    |sum_j y_j exp(-i dk(theta) x_j)|^2 over a bearing grid.

    sampling_interval case: the configured geometry with its window pitch
    swept; window_width case: with its window width swept. Curves are
    normalized by the common maximum across the case so a suppressed
    target shows up as low power rather than being renormalized away. A
    scene whose targets have no amplitude is a domain error.
    """
    scene = config.scene
    sensing.require_signal(scene, "the demo has no response to normalize")
    label, field = (("dx", "spacing")
                    if config.sweep.axis == "sampling_interval"
                    else ("width", "window_width"))
    angles_deg = np.arange(-90.0, 90.0 + DEMO_ANGLE_STEP_DEG / 2,
                           DEMO_ANGLE_STEP_DEG)
    dks = scene.wavenumber * (np.sin(scene.lo.angle)
                              - np.sin(np.deg2rad(angles_deg)))
    power = np.array([np.abs((np.exp(-1j * dks[:, None] * g.centers)
                              * sensing.predicted_measurements(
                                  scene, g, config.params).values
                              ).sum(axis=-1)) ** 2
                      for g in _axis_geometries(config, field)])
    return SamplingDemoResult(
        angles_deg=angles_deg, power=power / power.max(),
        labels=tuple(f"{label}_{v:g}wl" for v in config.sweep.values))
