"""Fluorescence readout and virtual-array sampling.

Simulates probe attenuation through the cell (Beer-Lambert), reads K
virtual-channel measurements from the fluorescence image through shifted
rectangular windows, calibrates away the LO-only background, and injects
measurement noise. As alpha = -d/dx log F, the absorption integral over
a window is a log-difference of the image, read with no numerical
derivative. The readout stages take one profile, or a stack of profiles
with leading axes, one row per scene; every row equals the readout of
its scene alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import physics
from .errors import (
    NonPositiveFluorescence,
    WindowOutOfCell,
    ZeroSignalPower,
)


@dataclass(frozen=True)
class SensorGeometry:
    """Cell length and K rectangular windows on a pitch, the first flush
    with x = 0.

    channel_count K is derived: as many windows as fit in the cell, so
    every window lies inside [0, cell_length] (to 1e-9 of a pitch).
    Window j (0-based) is centered at window_width/2 + j*spacing.
    grid_points_per_rf_wavelength sets the simulation grid density used
    by the fluorescence pipeline.
    """

    cell_length: float
    window_width: float
    spacing: float
    grid_points_per_rf_wavelength: int = 256
    channel_count: int = field(init=False)

    def __post_init__(self):
        if self.cell_length <= 0 or self.window_width <= 0 or self.spacing <= 0:
            raise ValueError("lengths and spacing must be strictly positive")
        if self.grid_points_per_rf_wavelength < 2:
            raise ValueError("grid density must be at least 2 points")
        count = int(np.floor((self.cell_length - self.window_width)
                             / self.spacing + 1e-9)) + 1
        if count < 2:
            raise ValueError("need at least two channels")
        object.__setattr__(self, "channel_count", count)

    @property
    def centers(self) -> np.ndarray:
        return self.window_width / 2 + self.spacing * np.arange(
            self.channel_count)

    @property
    def window_edges(self) -> tuple[np.ndarray, np.ndarray]:
        centers, half = self.centers, self.window_width / 2
        return centers - half, centers + half

    def grid(self, rf_wavelength: float) -> np.ndarray:
        """Uniform simulation grid over [0, cell_length]."""
        n = int(np.ceil(self.cell_length / rf_wavelength
                        * self.grid_points_per_rf_wavelength))
        return np.linspace(0.0, self.cell_length, n + 1)


@dataclass(frozen=True)
class FluorescenceProfile:
    """Probe power and side fluorescence sampled on a uniform grid: one
    profile (n,), or a stack (..., n) of profiles over the same positions."""

    positions: np.ndarray
    probe_power: np.ndarray
    fluorescence: np.ndarray

    def __post_init__(self):
        for name in ("positions", "probe_power", "fluorescence"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.probe_power.shape[-1:] != self.positions.shape or \
                self.probe_power.shape != self.fluorescence.shape:
            raise ValueError("profile arrays must share a shape")


@dataclass(frozen=True)
class MeasurementVector:
    """Calibrated virtual-channel samples with their noise metadata.

    values is one vector (K,) or a (T, K) stack of T Monte Carlo trials.
    """

    values: np.ndarray
    geometry: SensorGeometry
    noise_sigma: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2) or \
                values.shape[-1] != self.geometry.channel_count:
            raise ValueError("values length must equal channel_count")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


class PanelAbsorption(NamedTuple):
    """Mean absorption on each grid panel: values[..., i] is the mean over
    [positions[i], positions[i + 1]], one fewer column than positions."""

    positions: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SamplingReport:
    """Compliance of a geometry with the unambiguous-sampling constraints
    spacing <= lambda/4 and window width < lambda/2."""

    rf_wavelength: float
    spacing: float
    window_width: float
    spacing_ok: bool
    width_ok: bool
    spacing_margin: float
    width_margin: float

    @property
    def compliant(self) -> bool:
        return self.spacing_ok and self.width_ok


def running_integral(panel_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral along the last axis of a function that is constant
    on each panel [x[i], x[i + 1]], starting at 0 at x[0]: one more column
    than panel_values."""
    out = np.zeros(panel_values.shape[:-1] + x.shape)
    np.cumsum(np.diff(x) * panel_values, axis=-1, out=out[..., 1:])
    return out


def propagate_probe(alpha_profile: Callable[[np.ndarray], np.ndarray],
                    geometry: SensorGeometry,
                    rf_wavelength: float) -> FluorescenceProfile:
    """Attenuate a unit-power probe through the cell and emit the image.

    P(x) = exp(-integral_0^x alpha), trapezoid rule on the geometry grid.
    The fluorescence is proportional to P(x) (weak probe); its scale
    cancels in recover_alpha, so it is taken equal to P(x).
    alpha_profile may return a stack (..., n) of profiles on the grid.
    """
    x = geometry.grid(rf_wavelength)
    alpha = np.asarray(alpha_profile(x), dtype=float)
    optical_depth = running_integral((alpha[..., 1:] + alpha[..., :-1]) / 2,
                                     x)
    power = np.exp(-optical_depth)
    return FluorescenceProfile(positions=x, probe_power=power,
                               fluorescence=power)


def recover_alpha(profile: FluorescenceProfile) -> PanelAbsorption:
    """Mean absorption on each grid panel, read from the image exactly.

    alpha = -d/dx log F, so its mean over [x_i, x_i+1] is
    -(log F_i+1 - log F_i) / (x_i+1 - x_i): no derivative estimate, and
    the fluorescence proportionality constant cancels in the difference.
    """
    if np.any(profile.fluorescence <= 0):
        raise NonPositiveFluorescence("fluorescence must be strictly positive")
    x = profile.positions
    return PanelAbsorption(
        x, -np.diff(np.log(profile.fluorescence), axis=-1) / np.diff(x))


def channel_measurements(alpha_sampled: PanelAbsorption,
                         geometry: SensorGeometry) -> np.ndarray:
    """Integral of the panel-constant absorption over each window: the
    running integral C, linear between grid points, read at the window
    edges as C(b) - C(a).

    The values may be a stack (..., n - 1) over the positions (n,); the
    result is (..., K).
    """
    x, v = alpha_sampled
    tol = 1e-9 * geometry.cell_length
    lo, hi = geometry.window_edges
    bad = np.flatnonzero((lo < x[0] - tol) | (hi > x[-1] + tol))
    if bad.size:
        j = bad[0]
        raise WindowOutOfCell(
            f"window {j + 1} [{lo[j]:g}, {hi[j]:g}] outside sampled domain")
    edges = np.concatenate((np.maximum(lo, x[0]), np.minimum(hi, x[-1])))
    ends = np.array([np.interp(edges, x, row) for row in
                     running_integral(v, x).reshape(-1, len(x))])
    ends = ends.reshape(v.shape[:-1] + (2, -1))
    return ends[..., 1, :] - ends[..., 0, :]


def calibrate(values: np.ndarray, geometry: SensorGeometry,
              alpha_dc) -> MeasurementVector:
    """Subtract the LO-only background alpha_dc * window area per channel;
    a stack (..., K) of values takes one alpha_dc per row."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (geometry.channel_count,):
        raise ValueError("values length must equal channel_count")
    background = np.asarray(alpha_dc)[..., None] * geometry.window_width
    return MeasurementVector(values=values - background, geometry=geometry)


def _window_kernels(dk: float, half_width: float) -> tuple[float, float]:
    """(even, odd) moments of a centered window of half-width h: integral
    of cos(dk*u) du (the window's Fourier transform) and of u*sin(dk*u) du
    over [-h, h]. Below |dk*h| = 0.03 both take their series, which
    truncates below 2e-13 relative; there the closed odd moment would lose
    about 2e-16/(dk*h)**2 of itself to cancellation."""
    u = dk * half_width
    if abs(u) < 0.03:
        even = 2 * half_width * (1 - u**2 / 6 + u**4 / 120)
        odd = 2 * half_width**2 * (u / 3 - u**3 / 30 + u**5 / 840)
    else:
        even = 2 * np.sin(u) / dk
        odd = 2 * half_width**2 * (np.sin(u) - u * np.cos(u)) / u**2
    return even, odd


def window_integrals(geometry: SensorGeometry, dk: float, dphi: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form per-window integrals of cos(dk*x - dphi),
    sin(dk*x - dphi), and -x*sin(dk*x - dphi): the building blocks of the
    bound's mean-vector Jacobian."""
    centers = geometry.centers
    even, odd = _window_kernels(dk, geometry.window_width / 2)
    psi = dk * centers - dphi
    cos_vec = even * np.cos(psi)
    sin_vec = even * np.sin(psi)
    pos_sin_vec = -(centers * even * np.sin(psi) + odd * np.cos(psi))
    return cos_vec, sin_vec, pos_sin_vec


def sinusoid_measurements(geometry: SensorGeometry, delta_ks, delta_phis,
                          amplitudes) -> np.ndarray:
    """Noiseless channel model: y_j = sum_i Re[b_i exp(i dk_i x_j)] with
    b_i = A_i * w0_hat(dk_i) * exp(-i dphi_i), w0_hat the even moment."""
    delta_ks = np.atleast_1d(np.asarray(delta_ks, dtype=float))
    delta_phis = np.atleast_1d(np.asarray(delta_phis, dtype=float))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    centers = geometry.centers
    out = np.zeros(geometry.channel_count)
    for dk, dphi, amp in zip(delta_ks, delta_phis, amplitudes):
        even, _ = _window_kernels(dk, geometry.window_width / 2)
        out = out + amp * even * np.cos(dk * centers - dphi)
    return out


def predicted_measurements(scene: physics.RfScene, geometry: SensorGeometry,
                           params: physics.AtomicParams) -> MeasurementVector:
    """Calibrated measurements predicted by the linearized model."""
    mods = physics.modulation_amplitudes(params, scene)
    values = sinusoid_measurements(geometry, scene.delta_ks,
                                   scene.delta_phis, mods)
    return MeasurementVector(values=values, geometry=geometry)


def fluorescence_readout(scene, geometry: SensorGeometry,
                         params: physics.AtomicParams
                         ) -> tuple[FluorescenceProfile, MeasurementVector]:
    """Propagate, recover, window, calibrate; returns (image, measurements).

    scene is one RfScene, or a stack of scenes that differ only in LO
    amplitude (physics.scene_stack): the profile arrays and measurement
    values then gain a leading axis, and row c equals the readout of scene
    c alone bit for bit.
    """
    scenes = physics.scene_stack(scene)
    profile = propagate_probe(lambda x: physics.absorption_exact(
        params, scene, x), geometry, scenes[0].rf_wavelength)
    raw = channel_measurements(recover_alpha(profile), geometry)
    alpha_dc = [physics.absorption_dc(params, s) for s in scenes]
    return profile, calibrate(raw, geometry,
                              np.reshape(alpha_dc, raw.shape[:-1]))


def simulate_measurements(scene, geometry: SensorGeometry,
                          params: physics.AtomicParams) -> MeasurementVector:
    """Full-pipeline measurements from the exact nonlinear absorption, of
    one scene or of a stack (see fluorescence_readout)."""
    return fluorescence_readout(scene, geometry, params)[1]


def signal_power(values: np.ndarray) -> float:
    """Per-sample power of the deviations of a vector from its mean."""
    values = np.asarray(values, dtype=float)
    return float(np.mean((values - values.mean()) ** 2))


def snr_ratio(snr_db: float) -> float:
    """Linear power ratio of an SNR in dB; a ValueError unless it is a
    finite positive float (roughly -3,233 dB to 3,082 dB)."""
    try:
        ratio = 10 ** (snr_db / 10)
    except OverflowError:
        ratio = np.inf
    if not 0 < ratio < np.inf:
        raise ValueError(f"{snr_db:g} dB has no finite positive linear "
                         "power ratio")
    return ratio


def noise_variance(values: np.ndarray, snr_db: float) -> float:
    """Noise variance at the given per-sample SNR (dB) against the signal
    power of values: the one SNR rule of noise draws and bounds."""
    return signal_power(values) / snr_ratio(snr_db)


def require_signal(scene: physics.RfScene,
                   reason: str = "the SNR has no signal to reference") -> None:
    """A domain error, naming the caller's reason, for a scene whose targets
    have no amplitude, whose readout is rounding residue."""
    if scene.total_signal_amplitude == 0:
        raise ZeroSignalPower(
            f"no target has a nonzero amplitude_v_per_m: {reason}")


# numpy.random.SeedSequence hash constants (bit_generator.pyx). NumPy's
# RNG policy (NEP 19) keeps the SeedSequence and PCG64 streams stable.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4

# Stacks of fewer rows seed each row with default_rng. The batched hash
# costs a fixed 60-90 us a stack plus about 4 us a row, against 15-18 us
# a row per seed: on a 2-core x86 host the two break even somewhere in
# 6-12 rows (timing noise), batched wins 1.9x at 16 rows and 3.8x at
# 100, and a 1-row call (cli simulate, fluorescence cells) would be 5x
# slower batched.
BATCH_SEED_MIN_ROWS = 16


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(2, count) xor and multiplier words of successive hashmix calls:
    call n xors with the running constant, then multiplies by its next
    value (the constant times mult, mod 2**32)."""
    words = [init]
    for _ in range(count):
        words.append(words[-1] * mult & 0xFFFFFFFF)
    return np.array([words[:-1], words[1:]], dtype=np.uint32)


def _hashmix(value: np.ndarray, xor: np.ndarray,
             mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


# mix_entropy makes 4 + 4*3 hashmix calls; generate_state(4, uint64)
# draws 8 uint32 words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each seed s in
    [0, 2**32), as one (T, 4) array from vectorised uint32 arithmetic.

    Such a seed is a single entropy word, so every step of SeedSequence's
    hash is the same for all seeds and runs over the whole stack at once.
    """
    entropy = np.asarray(seeds, dtype=np.uint32)
    xa, ma = _HASH_A[:, :, None]
    pool = np.empty((_POOL_SIZE, entropy.size), dtype=np.uint32)
    # Hash the entropy word into pool[0], then run the hash on 0s.
    pool[0] = _hashmix(entropy, xa[0], ma[0])
    pool[1:] = _hashmix(np.uint32(0), xa[1:_POOL_SIZE], ma[1:_POOL_SIZE])
    # Mix each source word into the other three, in SeedSequence's order.
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(pool[src], xa[call:call + 3], ma[call:call + 3])
        call += 3
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    xb, mb = _HASH_B[:, :, None]
    state = _hashmix(pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE], xb, mb)
    # Little-endian word pairs, as generate_state packs uint64 output.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8") \
        .astype(np.uint64)


@functools.cache
def _precomputed_seed_sequence() -> type:
    """ISeedSequence that hands PCG64 seed words computed in advance, so
    PCG64 still seeds itself. Built on first use: importing numpy.random
    at module load would add ~12 ms to every CLI start."""
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeedSequence(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("only PCG64's 4 uint64 seed words are held")
            return self.words

    return PrecomputedSeedSequence


def _single_word(seed) -> bool:
    return isinstance(seed, (int, np.integer)) and 0 <= seed < 2**32


def standard_normal_rows(seeds: list, k: int) -> np.ndarray:
    """(T, k) array whose row t is default_rng(seeds[t]).standard_normal(k),
    bit for bit. Stacks of BATCH_SEED_MIN_ROWS or more seeds, all in
    [0, 2**32), hash their seeds in one seed_words pass; others, and any
    seed needing more entropy words, go through default_rng per row."""
    if len(seeds) < BATCH_SEED_MIN_ROWS or \
            not all(_single_word(s) for s in seeds):
        return np.array([np.random.default_rng(s).standard_normal(k)
                         for s in seeds])
    rows = np.empty((len(seeds), k))
    sequence = _precomputed_seed_sequence()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for row, words in zip(rows, seed_words(seeds)):
        generator(pcg64(sequence(words))).standard_normal(out=row)
    return rows


def add_noise(measurement: MeasurementVector, snr_db: float,
              seed) -> MeasurementVector:
    """Add i.i.d. Gaussian noise at the given per-sample SNR (dB).

    SNR is defined against the variance of the noiseless vector across
    channels. seed is one int, or a sequence of T ints for a (T, K) stack
    of noisy copies whose row t is exactly the single-seed draw of
    seed[t] (see standard_normal_rows). Deterministic for a fixed
    (input, snr_db, seed) triple. Only +inf dB is noiseless. The input is
    one noiseless vector; a stack is rejected.
    """
    if measurement.noise_sigma != 0:
        raise ValueError("input measurement already carries noise")
    if np.ndim(measurement.values) != 1:
        raise ValueError("add_noise takes one vector, not a stack")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    k = measurement.values.shape[-1]
    if snr_db == np.inf:
        sigma, noise = 0.0, np.zeros((len(seeds), k))
    else:
        sigma2 = noise_variance(measurement.values, snr_db)
        if sigma2 == 0:
            raise ZeroSignalPower(
                "constant measurement vector has no signal power")
        sigma = float(np.sqrt(sigma2))
        noise = sigma * standard_normal_rows(seeds, k)
    noisy = measurement.values + noise
    return MeasurementVector(values=noisy[0] if single else noisy,
                             geometry=measurement.geometry,
                             noise_sigma=sigma)


def check_sampling(geometry: SensorGeometry,
                   rf_wavelength: float) -> SamplingReport:
    """Evaluate spacing <= lambda/4 (inclusive) and width < lambda/2."""
    if rf_wavelength <= 0:
        raise ValueError("rf_wavelength must be strictly positive")
    return SamplingReport(
        rf_wavelength=rf_wavelength,
        spacing=geometry.spacing,
        window_width=geometry.window_width,
        spacing_ok=geometry.spacing <= rf_wavelength / 4,
        width_ok=geometry.window_width < rf_wavelength / 2,
        spacing_margin=rf_wavelength / 4 - geometry.spacing,
        width_margin=rf_wavelength / 2 - geometry.window_width,
    )
