"""Fluorescence readout and virtual-array sampling.

Simulates probe attenuation through the cell (Beer-Lambert), reads K
virtual-channel measurements through shifted rectangular windows,
calibrates away the LO-only background, and injects measurement noise.
The probe's optical depth integrates the absorption's cubic Hermite
interpolant, and each window's absorption integral is that depth read at
its edges off the Hermite interpolant of (depth, absorption): fourth
order in the grid step, with no numerical derivative. The fluorescence
image exp(-optical depth) is derived only for fluorescence.csv. The
readout stages take one profile, or a stack of profiles with leading
axes, one row per scene; every row equals the readout of its scene alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    grid_points_per_rf_wavelength: int = 32
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
    """The probe's optical depth and the absorption, its slope, sampled on
    a grid: one profile (n,), or a stack (..., n) of profiles over the
    same positions."""

    positions: np.ndarray
    optical_depth: np.ndarray
    absorption: np.ndarray

    def __post_init__(self):
        for name in ("positions", "optical_depth", "absorption"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.optical_depth.shape[-1:] != self.positions.shape or \
                self.absorption.shape != self.optical_depth.shape:
            raise ValueError("optical_depth and absorption need one column "
                             "per position")

    @property
    def fluorescence(self) -> np.ndarray:
        """The image exp(-optical_depth): the weak-probe fluorescence,
        taken equal to the unit-power probe's power."""
        return np.exp(-self.optical_depth)


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


def propagate_probe(alpha: np.ndarray, slope: np.ndarray,
                    x: np.ndarray) -> FluorescenceProfile:
    """The optical depth integral_0^x alpha of a probe through the cell,
    from absorption samples alpha and their slope, one profile (n,) or a
    stack (..., n), on the grid x (n,), from 0 at x[0]. Each interval of
    width h adds h*(alpha_l + alpha_r)/2 - h**2/12*(slope_r - slope_l), the
    end-corrected trapezoid: the integral of alpha's cubic Hermite
    interpolant, exact for cubics on any spacing."""
    h = np.diff(x)
    depth = np.zeros(alpha.shape)
    np.cumsum(h * ((alpha[..., 1:] + alpha[..., :-1]) / 2
                   - h * np.diff(slope) / 12), axis=-1, out=depth[..., 1:])
    return FluorescenceProfile(positions=x, optical_depth=depth,
                               absorption=alpha)


def recover_alpha(fluorescence: np.ndarray) -> np.ndarray:
    """Optical depth log F(0) - log F of a measured image (..., n): as
    alpha = -d/dx log F, it is read exactly with no derivative estimate,
    and the fluorescence proportionality constant cancels."""
    fluorescence = np.asarray(fluorescence, dtype=float)
    if np.any(fluorescence <= 0):
        raise NonPositiveFluorescence("fluorescence must be strictly positive")
    log_f = np.log(fluorescence)
    return log_f[..., :1] - log_f


def channel_measurements(profile: FluorescenceProfile,
                         geometry: SensorGeometry) -> np.ndarray:
    """Absorption integral over each window, C(b) - C(a), read off the
    cubic Hermite interpolant C of the profile's optical depth and its
    slope, the absorption; the result is (..., K). An edge on a grid point
    reads that point's depth exactly, and between points the error is
    fourth order in the grid step."""
    x, depth = profile.positions, profile.optical_depth
    tol = 1e-9 * geometry.cell_length
    lo, hi = geometry.window_edges
    bad = np.flatnonzero((lo < x[0] - tol) | (hi > x[-1] + tol))
    if bad.size:
        j = bad[0]
        raise WindowOutOfCell(
            f"window {j + 1} [{lo[j]:g}, {hi[j]:g}] outside sampled domain")
    edges = np.concatenate((np.maximum(lo, x[0]), np.minimum(hi, x[-1])))
    i = np.clip(np.searchsorted(x, edges, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    t = (edges - x[i]) / h
    s = 1 - t
    ends = (s * s * (1 + 2 * t) * depth[..., i]
            + t * t * (3 - 2 * t) * depth[..., i + 1]
            + h * t * s * (s * profile.absorption[..., i]
                           - t * profile.absorption[..., i + 1]))
    ends = ends.reshape(depth.shape[:-1] + (2, lo.size))
    return ends[..., 1, :] - ends[..., 0, :]


def calibrate(values: np.ndarray, geometry: SensorGeometry,
              alpha_dc) -> MeasurementVector:
    """Subtract the LO-only background alpha_dc * window area per channel;
    a stack (..., K) of values takes one alpha_dc per row."""
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
    """Propagate, window, calibrate; returns (profile, measurements).

    scene is one RfScene, or a stack of scenes that differ only in LO
    amplitude (physics.scene_stack): the optical depth and measurement
    values then gain a leading axis, and row c equals the readout of scene
    c alone bit for bit.
    """
    scenes = physics.scene_stack(scene)
    x = geometry.grid(scenes[0].rf_wavelength)
    profile = propagate_probe(physics.absorption_exact(params, scene, x),
                              physics.absorption_slope(params, scene, x), x)
    raw = channel_measurements(profile, geometry)
    alpha_dc = [physics.absorption_dc(params, s) for s in scenes]
    return profile, calibrate(raw, geometry,
                              np.reshape(alpha_dc, raw.shape[:-1]))


def simulate_measurements(scene, geometry: SensorGeometry,
                          params: physics.AtomicParams) -> MeasurementVector:
    """Full-pipeline measurements from the exact nonlinear absorption, of
    one scene or of a stack (see fluorescence_readout)."""
    return fluorescence_readout(scene, geometry, params)[1]


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
    power of values, the mean square of their deviations from their mean:
    the one SNR rule of noise draws and bounds."""
    values = np.asarray(values, dtype=float)
    return float(np.mean((values - values.mean()) ** 2)) / snr_ratio(snr_db)


def require_signal(scene: physics.RfScene,
                   reason: str = "the SNR has no signal to reference") -> None:
    """A domain error, naming the caller's reason, for a scene whose targets
    have no amplitude, whose readout is rounding residue."""
    if scene.total_signal_amplitude == 0:
        raise ZeroSignalPower(
            f"no target has a nonzero amplitude_v_per_m: {reason}")


# Noise rule: seed s draws row s % NOISE_BLOCK_ROWS of the block that
# default_rng(s // NOISE_BLOCK_ROWS).standard_normal fills row by row. A
# block is one PCG64 stream filled in C order, so its first r + 1 rows are
# the same however many rows are drawn: a stack row equals the single-seed
# draw bit for bit, and a stack of T seeds builds about T / 32 generators.
NOISE_BLOCK_ROWS = 32


def standard_normal_rows(seeds: range, k: int) -> np.ndarray:
    """(T, k) array whose row t is the noise row of seed seeds[t] (see
    NOISE_BLOCK_ROWS), for a range of T consecutive seeds: each block is
    drawn once, up to the last row the range needs, and sliced. Seeds are
    nonnegative ints of any size (default_rng rejects the negative block
    of a negative one); an empty range gives (0, k)."""
    if seeds.step != 1:
        raise ValueError("seeds must be consecutive: a range of step 1")
    if not seeds:
        return np.empty((0, k))
    n = NOISE_BLOCK_ROWS
    first, last = seeds.start, seeds.stop - 1
    return np.concatenate([
        np.random.default_rng(q).standard_normal(
            (min(last - q * n + 1, n), k))[max(first - q * n, 0):]
        for q in range(first // n, last // n + 1)])


def add_noise(measurement: MeasurementVector, snr_db: float,
              seed) -> MeasurementVector:
    """Add i.i.d. Gaussian noise at the given per-sample SNR (dB).

    SNR is defined against the variance of the noiseless vector across
    channels. seed is one nonnegative int, drawn as the range of one seed,
    or a range of T consecutive seeds for a (T, K) stack of noisy copies
    whose row t is exactly the single-seed draw of seed[t]; each seed's
    noise is its row of standard_normal_rows. Deterministic for a fixed
    (input, snr_db, seed) triple. Only +inf dB is noiseless. The input is
    one noiseless vector; a stack is rejected.
    """
    if measurement.noise_sigma != 0:
        raise ValueError("input measurement already carries noise")
    if np.ndim(measurement.values) != 1:
        raise ValueError("add_noise takes one vector, not a stack")
    single = not isinstance(seed, range)
    try:
        seeds = range(seed, seed + 1) if single else seed
    except TypeError:
        raise TypeError("seed must be an int or a range of ints, not "
                        f"{type(seed).__name__}") from None
    if snr_db == np.inf:
        sigma = 0.0
    else:
        sigma2 = noise_variance(measurement.values, snr_db)
        if sigma2 == 0:
            raise ZeroSignalPower(
                "constant measurement vector has no signal power")
        sigma = float(np.sqrt(sigma2))
    # Drawn at +inf dB too, so that every SNR checks its seeds alike.
    noise = sigma * standard_normal_rows(seeds, measurement.values.shape[-1])
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
