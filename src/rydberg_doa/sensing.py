"""Fluorescence readout and virtual-array sampling.

Every number the readout produces is an integral of the exact absorption
alpha: a virtual channel is its integral over one window, and the
probe's optical depth at x (Beer-Lambert) its integral from 0 to x. One
rule computes them all, composite 4-node Gauss-Legendre on equal panels
of at most lambda/4, so the Monte Carlo path reads the windows with no
simulation grid, and the grid only samples the fluorescence image
exp(-optical depth) for fluorescence.csv. The readout then calibrates
away the LO-only background and injects measurement noise. Given LO
amplitudes, the window readout of a scene has a row per amplitude, each
equal to the readout of the scene at that amplitude alone. Its
LO-dominant limit, a sum of windowed sinusoids, is analytic_model, which
gives the values of parameter rows and their Jacobian in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import physics
from .errors import (NonPositiveFluorescence, RydbergDoaError,
                     ZeroSignalPower, read_only_copy)


@dataclass(frozen=True)
class SensorGeometry:
    """Cell length and K rectangular windows on a pitch, the first flush
    with x = 0.

    channel_count K is derived: as many windows as fit in the cell, so
    every window lies inside [0, cell_length] (to 1e-9 of a pitch).
    Window j (0-based) is centered at window_width/2 + j*spacing.
    grid_points_per_rf_wavelength sets how densely the simulation grid
    samples the fluorescence image; the window values do not depend on it.
    """

    cell_length: float
    window_width: float
    spacing: float
    grid_points_per_rf_wavelength: int = 32
    channel_count: int = field(init=False)
    centers: np.ndarray = field(init=False, compare=False, repr=False)
    window_edges: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.cell_length <= 0 or self.window_width <= 0 or self.spacing <= 0:
            raise ValueError("lengths and spacing must be strictly positive")
        if self.grid_points_per_rf_wavelength < 2:
            raise ValueError("grid density must be at least 2 points")
        count = int(np.floor((self.cell_length - self.window_width)
                             / self.spacing + 1e-9)) + 1
        if count < 2:
            raise ValueError("need at least two channels")
        half = self.window_width / 2
        centers = half + self.spacing * np.arange(count)
        object.__setattr__(self, "channel_count", count)
        object.__setattr__(self, "centers", read_only_copy(centers))
        object.__setattr__(self, "window_edges", (
            read_only_copy(centers - half), read_only_copy(centers + half)))

    def grid(self, rf_wavelength: float) -> np.ndarray:
        """Uniform simulation grid over [0, cell_length]."""
        n = int(np.ceil(self.cell_length / rf_wavelength
                        * self.grid_points_per_rf_wavelength))
        return np.linspace(0.0, self.cell_length, n + 1)


@dataclass(frozen=True)
class FluorescenceProfile:
    """The probe's optical depth sampled on a grid of positions."""

    positions: np.ndarray
    optical_depth: np.ndarray

    def __post_init__(self):
        for name in ("positions", "optical_depth"):
            object.__setattr__(self, name,
                               read_only_copy(getattr(self, name), float))
        if self.optical_depth.shape != self.positions.shape:
            raise ValueError("optical_depth needs one value per position")

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
        object.__setattr__(self, "values", read_only_copy(self.values, float))
        if self.values.ndim not in (1, 2) or \
                self.values.shape[-1] != self.geometry.channel_count:
            raise ValueError("values length must equal channel_count")
        if not np.isfinite(self.values).all():
            raise RydbergDoaError("measurement values must be finite")
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


# The 4-node Gauss-Legendre rule on [-1, 1]: nodes in ascending order and
# their weights (Davis & Rabinowitz, Methods of Numerical Integration,
# 1984). It is exact for polynomials of degree 7.
GAUSS_NODES = (-0.86113631159405257522, -0.33998104358485626480,
               0.33998104358485626480, 0.86113631159405257522)
GAUSS_WEIGHTS = (0.34785484513745385737, 0.65214515486254614263,
                 0.65214515486254614263, 0.34785484513745385737)


def gauss_legendre(f, lo: np.ndarray, hi: np.ndarray,
                   max_panel: float) -> np.ndarray:
    """Integral of f over each interval [lo_i, hi_i] of the edge arrays
    (m,): composite 4-node Gauss-Legendre on equal panels, as many in every
    interval, the fewest that keep each panel at most max_panel wide (to
    1e-9 of it). f maps an array of positions to its values there, with
    any leading axes; the result is (..., m). Nodes and panels are summed
    elementwise in a fixed order, with no reduction kernel, so each row
    equals the integral of that row of f alone bit for bit."""
    width = hi - lo
    panels = max(1, int(np.ceil(width.max() / max_panel - 1e-9)))
    half = width / (2 * panels)
    mids = lo + half * np.arange(1, 2 * panels, 2)[:, None]
    values = f(mids + half * np.reshape(GAUSS_NODES, (-1, 1, 1)))
    total = 0.0
    for p in range(panels):
        for node, weight in enumerate(GAUSS_WEIGHTS):
            total = total + weight * values[..., node, p, :]
    return half * total


def _absorption_integrals(scene: physics.RfScene,
                          params: physics.AtomicParams, lo: np.ndarray,
                          hi: np.ndarray, lo_amplitudes=None) -> np.ndarray:
    """Integral of the exact absorption over each interval [lo_i, hi_i],
    on panels of at most lambda/4: (m,), or (C, m) for C LO amplitudes."""
    return gauss_legendre(
        lambda x: physics.absorption_exact(params, scene, x, lo_amplitudes),
        lo, hi, scene.rf_wavelength / 4)


def propagate_probe(scene: physics.RfScene, geometry: SensorGeometry,
                    params: physics.AtomicParams) -> FluorescenceProfile:
    """The probe's optical depth through the cell on the simulation grid:
    from 0 at x = 0, the running sum of the absorption's integral over
    each grid interval."""
    x = geometry.grid(scene.rf_wavelength)
    depth = np.zeros(x.shape)
    np.cumsum(_absorption_integrals(scene, params, x[:-1], x[1:]),
              out=depth[1:])
    return FluorescenceProfile(positions=x, optical_depth=depth)


def recover_alpha(fluorescence: np.ndarray) -> np.ndarray:
    """Optical depth log F(0) - log F of a measured image (..., n): as
    alpha = -d/dx log F, it is read exactly with no derivative estimate,
    and the fluorescence proportionality constant cancels."""
    fluorescence = np.asarray(fluorescence, dtype=float)
    if np.any(fluorescence <= 0):
        raise NonPositiveFluorescence("fluorescence must be strictly positive")
    log_f = np.log(fluorescence)
    return log_f[..., :1] - log_f


def channel_measurements(scene: physics.RfScene, geometry: SensorGeometry,
                         params: physics.AtomicParams,
                         lo_amplitudes=None) -> np.ndarray:
    """Integral of the exact absorption over each window, its upper edges
    clipped to cell_length: (K,), or (C, K) for C LO amplitudes."""
    lo, hi = geometry.window_edges
    return _absorption_integrals(scene, params, lo, np.minimum(
        hi, geometry.cell_length), lo_amplitudes)


def calibrate(values: np.ndarray, geometry: SensorGeometry,
              alpha_dc) -> MeasurementVector:
    """Subtract the LO-only background alpha_dc * window area per channel;
    a stack (..., K) of values takes one alpha_dc per row."""
    background = np.asarray(alpha_dc)[..., None] * geometry.window_width
    with np.errstate(invalid="ignore"):  # MeasurementVector rejects a NaN
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


def analytic_model(geometry: SensorGeometry, delta_ks, delta_phis,
                   amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """The linearized channel model and its Jacobian for (..., N) parameter
    rows: (..., K) values y_j = sum_i A_i w_i cos(dk_i x_j - dphi_i), with
    w_i the even moment, summed target by target from zeros, and the
    (..., K, 3N) Jacobian, columns (dk_1..dk_N, dphi_1..dphi_N, A_1..A_N):
    A_i times the window integrals of -x sin(dk_i x - dphi_i) and of
    sin(dk_i x - dphi_i), then that of cos(dk_i x - dphi_i). The kernel
    runs once per (row, target); each row equals its one-row call bit for
    bit."""
    dks, dphis, amps = (np.asarray(a, dtype=float)[..., None, :]
                        for a in (delta_ks, delta_phis, amplitudes))
    centers = geometry.centers[:, None]
    kernels = np.reshape([_window_kernels(dk, geometry.window_width / 2)
                          for dk in dks.flat], dks.shape + (2,))
    even, odd = kernels[..., 0], kernels[..., 1]
    psi = dks * centers - dphis
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    # Each product's grouping fixes its last bits, and so the bytes of the
    # analytic outputs: the values take (A w) cos, the phase column A (w sin).
    weighted = amps * even * cos_psi
    values = np.zeros(weighted.shape[:-1])
    with np.errstate(invalid="ignore"):  # the values' readers reject a NaN
        for i in range(weighted.shape[-1]):
            values = values + weighted[..., i]
    pos_sin = -(centers * even * sin_psi + odd * cos_psi)
    return values, np.concatenate(
        [amps * pos_sin, amps * (even * sin_psi), even * cos_psi], axis=-1)


def predicted_measurements(scene: physics.RfScene, geometry: SensorGeometry,
                           params: physics.AtomicParams) -> MeasurementVector:
    """Calibrated measurements predicted by the linearized model."""
    values, _ = analytic_model(geometry, scene.delta_ks, scene.delta_phis,
                               physics.modulation_amplitudes(params, scene))
    return MeasurementVector(values=values, geometry=geometry)


def simulate_measurements(scene: physics.RfScene, geometry: SensorGeometry,
                          params: physics.AtomicParams,
                          lo_amplitudes=None) -> MeasurementVector:
    """Calibrated window integrals of the exact nonlinear absorption.

    Given lo_amplitudes, C LO amplitudes (V/m), the values gain a leading
    axis, and row c equals the measurements of the scene with its LO
    amplitude set to lo_amplitudes[c] bit for bit.
    """
    return calibrate(
        channel_measurements(scene, geometry, params, lo_amplitudes),
        geometry, physics.absorption_dc(params, scene, lo_amplitudes))


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
    power of values, their mean-square deviation, which overflowing
    raises OverflowError: the one SNR rule of noise draws and bounds."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # raised as OverflowError below
        power = float(np.mean((values - values.mean()) ** 2))
    if power == np.inf:
        raise OverflowError("the signal power is out of the float range")
    return power / snr_ratio(snr_db)


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
    NOISE_BLOCK_ROWS), for a range of T consecutive nonnegative seeds of
    any size: each block is drawn once, up to the last row the range
    needs, and sliced. An empty range or k = 0 checks the seeds only."""
    if seeds.step != 1 or (seeds and seeds.start < 0):
        raise ValueError("seeds must be a range of step 1 of nonnegative ints")
    if not seeds or k == 0:
        return np.empty((len(seeds), k))
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
    (input, snr_db, seed) triple. Only +inf dB is noiseless: it checks the
    seeds, draws none and repeats the input bit for bit (the Monte Carlo
    engine's noiseless cells). The input is one noiseless vector; a stack
    is rejected.
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
    if snr_db == np.inf:  # checks its seeds as a draw does, draws none
        standard_normal_rows(seeds, 0)
        sigma, noisy = 0.0, np.tile(measurement.values, (len(seeds), 1))
    else:
        sigma2 = noise_variance(measurement.values, snr_db)
        if sigma2 == 0:
            raise ZeroSignalPower(
                "constant measurement vector has no signal power")
        sigma = float(np.sqrt(sigma2))
        noisy = measurement.values + sigma * standard_normal_rows(
            seeds, measurement.values.shape[-1])
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
