"""Fluorescence readout and virtual-array sampling.

Simulates probe attenuation through the cell (Beer-Lambert), recovers the
local absorption coefficient from the fluorescence profile, reduces it to
K virtual-channel measurements through shifted rectangular windows,
calibrates away the LO-only background, and injects measurement noise.
Also covers the single-channel integrated-power special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import physics
from .errors import (
    NonPositiveFluorescence,
    WindowOutOfCell,
    ZeroSignalPower,
)

ANALYTIC_MODEL = "analytic_model"
SIMULATED_FLUORESCENCE = "simulated_fluorescence"
_SOURCES = (ANALYTIC_MODEL, SIMULATED_FLUORESCENCE)

# First positive root of u = tan(u); edge of the monotone main lobe of
# the rectangular-window response.
SINC_MONOTONE_ROOT = 4.493


@dataclass(frozen=True)
class SensorGeometry:
    """Cell length, rectangular mother window, and K shifted window centers.

    Window j (1-based) is centered at first_center + (j-1)*spacing and must
    lie inside [0, cell_length]. grid_points_per_rf_wavelength sets the
    simulation grid density used by the fluorescence pipeline.
    """

    cell_length: float
    window_width: float
    first_center: float
    spacing: float
    channel_count: int
    grid_points_per_rf_wavelength: int = 256

    def __post_init__(self):
        if self.cell_length <= 0 or self.window_width <= 0 or self.spacing <= 0:
            raise ValueError("lengths and spacing must be strictly positive")
        if self.channel_count < 2:
            raise ValueError("need at least two channels")
        if self.grid_points_per_rf_wavelength < 2:
            raise ValueError("grid density must be at least 2 points")
        tol = 1e-12 * self.cell_length
        lo = self.centers[0] - self.window_width / 2
        hi = self.centers[-1] + self.window_width / 2
        if lo < -tol or hi > self.cell_length + tol:
            raise ValueError("window supports must lie inside the cell")

    @classmethod
    def from_cell(cls, cell_length: float, window_width: float,
                  spacing: float, grid_points_per_rf_wavelength: int = 256
                  ) -> "SensorGeometry":
        """Pack as many windows as fit, first window flush with x=0."""
        count = int(np.floor((cell_length - window_width) / spacing + 1e-9)) + 1
        return cls(cell_length=cell_length, window_width=window_width,
                   first_center=window_width / 2, spacing=spacing,
                   channel_count=count,
                   grid_points_per_rf_wavelength=grid_points_per_rf_wavelength)

    @property
    def centers(self) -> np.ndarray:
        return self.first_center + self.spacing * np.arange(self.channel_count)

    def window_edges(self, j: int) -> tuple[float, float]:
        c = self.first_center + self.spacing * j
        return c - self.window_width / 2, c + self.window_width / 2

    def grid(self, rf_wavelength: float) -> np.ndarray:
        """Uniform simulation grid over [0, cell_length]."""
        n = int(np.ceil(self.cell_length / rf_wavelength
                        * self.grid_points_per_rf_wavelength))
        return np.linspace(0.0, self.cell_length, n + 1)


@dataclass(frozen=True)
class FluorescenceProfile:
    """Probe power and side fluorescence sampled on a uniform grid."""

    positions: np.ndarray
    probe_power: np.ndarray
    fluorescence: np.ndarray
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("positions", "probe_power", "fluorescence"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.positions.shape != self.probe_power.shape or \
                self.positions.shape != self.fluorescence.shape:
            raise ValueError("profile arrays must share a shape")


@dataclass(frozen=True)
class MeasurementVector:
    """Calibrated virtual-channel samples with their noise metadata.

    values is one vector (K,), or a (T, K) stack of T Monte Carlo trials
    of one vector, with rng_seed then holding the T noise seeds.
    """

    values: np.ndarray
    geometry: SensorGeometry
    noise_sigma: float = 0.0
    rng_seed: int | tuple | None = None
    source: str = ANALYTIC_MODEL

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2) or \
                values.shape[-1] != self.geometry.channel_count:
            raise ValueError("values length must equal channel_count")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}")


class SampledAbsorption(NamedTuple):
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


def propagate_probe(alpha_profile: Callable[[np.ndarray], np.ndarray],
                    geometry: SensorGeometry, rf_wavelength: float,
                    input_power: float = 1.0,
                    kappa: float = 1.0) -> FluorescenceProfile:
    """Attenuate the probe through the cell and emit the fluorescence image.

    P(x) = P_in * exp(-integral_0^x alpha), cumulative trapezoid on the
    geometry grid; fluorescence is kappa * P(x) (weak-probe proportionality).
    """
    if input_power <= 0:
        raise ValueError("input_power must be strictly positive")
    x = geometry.grid(rf_wavelength)
    alpha = np.asarray(alpha_profile(x), dtype=float)
    optical_depth = cumulative_trapezoid(alpha, x, initial=0.0)
    power = input_power * np.exp(-optical_depth)
    return FluorescenceProfile(positions=x, probe_power=power,
                               fluorescence=kappa * power, kappa=kappa)


def recover_alpha(profile: FluorescenceProfile) -> SampledAbsorption:
    """Absorption coefficient from the log-derivative of the fluorescence.

    Second-order central differences, one-sided at the cell ends. The
    fluorescence proportionality constant cancels in the log derivative.
    """
    if np.any(profile.fluorescence <= 0):
        raise NonPositiveFluorescence("fluorescence must be strictly positive")
    alpha = -np.gradient(np.log(profile.fluorescence), profile.positions)
    return SampledAbsorption(profile.positions, alpha)


def _window_integral(x: np.ndarray, v: np.ndarray, a: float, b: float) -> float:
    """Trapezoid of samples (x, v) over [a, b], interpolating the edges."""
    inside = (x > a) & (x < b)
    xs = np.concatenate(([a], x[inside], [b]))
    vs = np.concatenate(([np.interp(a, x, v)], v[inside], [np.interp(b, x, v)]))
    return float(np.trapezoid(vs, xs))


def channel_measurements(alpha_sampled: SampledAbsorption,
                         geometry: SensorGeometry) -> np.ndarray:
    """Integrate the sampled absorption over each rectangular window."""
    x, v = alpha_sampled
    tol = 1e-9 * geometry.cell_length
    out = np.empty(geometry.channel_count)
    for j in range(geometry.channel_count):
        a, b = geometry.window_edges(j)
        if a < x[0] - tol or b > x[-1] + tol:
            raise WindowOutOfCell(
                f"window {j + 1} [{a:g}, {b:g}] outside sampled domain")
        out[j] = _window_integral(x, v, max(a, x[0]), min(b, x[-1]))
    return out


def calibrate(values: np.ndarray, geometry: SensorGeometry, alpha_dc: float,
              source: str = SIMULATED_FLUORESCENCE) -> MeasurementVector:
    """Subtract the LO-only background alpha_dc * window area per channel."""
    values = np.asarray(values, dtype=float)
    if len(values) != geometry.channel_count:
        raise ValueError("values length must equal channel_count")
    return MeasurementVector(
        values=values - alpha_dc * geometry.window_width,
        geometry=geometry, noise_sigma=0.0, rng_seed=None, source=source)


def window_transform(window_width: float, omega) -> np.ndarray | float:
    """Spatial Fourier transform of the centered rectangular mother window:
    2*sin(omega*l/2)/omega, with the DC limit equal to the window area."""
    if window_width <= 0:
        raise ValueError("window_width must be strictly positive")
    omega = np.asarray(omega, dtype=float)
    half = window_width / 2
    u = omega * half
    small = np.abs(u) < 1e-8
    safe = np.where(small, 1.0, omega)
    out = np.where(small, window_width * (1 - u**2 / 6),
                   2 * np.sin(u) / safe)
    return out if out.ndim else float(out)


def sinusoid_measurements(geometry: SensorGeometry, delta_ks, delta_phis,
                          amplitudes) -> np.ndarray:
    """Noiseless channel model: y_j = sum_i Re[b_i exp(i dk_i x_j)] with
    b_i = A_i * w0_hat(dk_i) * exp(-i dphi_i)."""
    delta_ks = np.atleast_1d(np.asarray(delta_ks, dtype=float))
    delta_phis = np.atleast_1d(np.asarray(delta_phis, dtype=float))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    centers = geometry.centers
    out = np.zeros(geometry.channel_count)
    for dk, dphi, amp in zip(delta_ks, delta_phis, amplitudes):
        gain = window_transform(geometry.window_width, dk)
        out = out + amp * gain * np.cos(dk * centers - dphi)
    return out


def predicted_measurements(scene: physics.RfScene, geometry: SensorGeometry,
                           params: physics.AtomicParams) -> MeasurementVector:
    """Calibrated measurements predicted by the linearized model."""
    mods = physics.modulation_amplitudes(params, scene)
    values = sinusoid_measurements(geometry, scene.delta_ks,
                                   scene.delta_phis, mods)
    return MeasurementVector(values=values, geometry=geometry,
                             noise_sigma=0.0, source=ANALYTIC_MODEL)


def simulate_measurements(scene: physics.RfScene, geometry: SensorGeometry,
                          params: physics.AtomicParams) -> MeasurementVector:
    """Full-pipeline measurements from the exact nonlinear absorption:
    propagate, recover, window, calibrate."""
    profile = propagate_probe(
        lambda x: physics.absorption_exact(params, scene, x),
        geometry, scene.rf_wavelength)
    alpha_hat = recover_alpha(profile)
    raw = channel_measurements(alpha_hat, geometry)
    return calibrate(raw, geometry, physics.absorption_dc(params, scene))


def signal_power(values: np.ndarray) -> float:
    """Per-sample power of the deviations of a vector from its mean."""
    values = np.asarray(values, dtype=float)
    return float(np.mean((values - values.mean()) ** 2))


def add_noise(measurement: MeasurementVector, snr_db: float,
              seed) -> MeasurementVector:
    """Add i.i.d. Gaussian noise at the given per-sample SNR (dB).

    SNR is defined against the variance of the noiseless vector across
    channels. seed is one int, or a sequence of T ints for a (T, K) stack
    of noisy copies whose row t is exactly the single-seed draw of
    seed[t]. Deterministic for a fixed (input, snr_db, seed) triple.
    """
    if measurement.noise_sigma != 0:
        raise ValueError("input measurement already carries noise")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    k = measurement.values.shape[-1]
    if np.isinf(snr_db):
        sigma, noise = 0.0, np.zeros((len(seeds), k))
    else:
        power = signal_power(measurement.values)
        if power == 0:
            raise ZeroSignalPower(
                "constant measurement vector has no signal power")
        sigma = float(np.sqrt(power / 10 ** (snr_db / 10)))
        noise = sigma * np.array([np.random.default_rng(s).standard_normal(k)
                                  for s in seeds])
    noisy = measurement.values + noise
    return MeasurementVector(values=noisy[0] if single else noisy,
                             geometry=measurement.geometry,
                             noise_sigma=sigma,
                             rng_seed=seed if single else tuple(seeds),
                             source=measurement.source)


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


def sinc_response(delta_k: float, cell_length: float) -> float:
    """Whole-cell cosine integral L*sinc(dk*L) of the single-channel model."""
    u = delta_k * cell_length
    if abs(u) < 1e-8:
        return cell_length * (1 - u**2 / 6)
    return cell_length * np.sin(u) / u


def monotonic_length_bound(rf_wavelength: float) -> float:
    """Largest cell length keeping the integrated-power response monotone
    over the full bearing range: u1 * lambda / (4*pi), u1 = 4.493."""
    return SINC_MONOTONE_ROOT * rf_wavelength / (4 * np.pi)


def integrated_power_transmission(scene: physics.RfScene,
                                  params: physics.AtomicParams,
                                  cell_length: float) -> float:
    """Whole-cell power transmission of the linearized single-target model."""
    if scene.n_signals != 1:
        raise ValueError("integrated-power model is single-target only")
    dk = float(scene.delta_ks[0])
    dphi = float(scene.delta_phis[0])
    mod = float(physics.modulation_amplitudes(params, scene)[0])
    total = physics.absorption_dc(params, scene) * cell_length
    total += mod * _cosine_integral(dk, dphi, 0.0, cell_length)
    return float(np.exp(-total))


def _cosine_integral(dk: float, dphi: float, a: float, b: float) -> float:
    """Closed-form integral of cos(dk*x - dphi) over [a, b], stable at dk=0."""
    half = (b - a) / 2
    mid = (a + b) / 2
    u = dk * half
    if abs(u) < 1e-8:
        kernel = 2 * half * (1 - u**2 / 6)
    else:
        kernel = 2 * np.sin(u) / dk
    return kernel * np.cos(dk * mid - dphi)
