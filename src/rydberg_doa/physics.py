"""Atomic-vapor forward model: RF interference field, the algebraic EIT
absorption model and its LO-dominant linearization.

All quantities are SI (rad/s for angular rates, V/m for fields, 1/m for
absorption); angles are radians. Everything here is a pure function of its
inputs and vectorizes over position / field arguments via numpy.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDetuning, LoDominanceWarning, SingularPoint

# CODATA 2022 values; c and h are exact in the SI.
SPEED_OF_LIGHT = 299_792_458.0
VACUUM_PERMITTIVITY = 8.8541878188e-12
REDUCED_PLANCK = 6.62607015e-34 / (2 * np.pi)

# LO-to-signal amplitude ratio below which the linearized model is dubious.
LO_RATIO_WARN_THRESHOLD = 10.0


@dataclass(frozen=True)
class AtomicParams:
    """Constants of the four-level ladder system and the probe beam.

    Angular rates (decay, Rabi, detunings) are in rad/s; dipole moments in
    C*m; density in 1/m^3. Defaults correspond to a warm Rb vapor probed on
    the 780 nm line with a 480 nm coupling beam. The probe is resonant:
    the EIT model has no probe detuning.
    """

    atom_density: float = 4.13e13
    probe_dipole: float = 1.06e-29
    rf_dipole: float = 7.85e-26
    decay_21: float = 2 * np.pi * 6.066e6
    coupling_rabi: float = 2 * np.pi * 40e6
    coupling_detuning: float = 2 * np.pi * 10e3
    rf_detuning: float = 0.0
    probe_wavelength: float = 780.24e-9

    def __post_init__(self):
        for name in ("atom_density", "probe_dipole", "rf_dipole", "decay_21",
                     "coupling_rabi", "probe_wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.coupling_detuning + self.rf_detuning == 0:
            raise DegenerateDetuning(
                "coupling_detuning + rf_detuning must be nonzero")

    @property
    def probe_wavenumber(self) -> float:
        return 2 * np.pi / self.probe_wavelength


@dataclass(frozen=True)
class PlaneWave:
    """A far-field plane wave: amplitude (V/m), phase (rad), angle (rad)."""

    amplitude: float
    phase: float = 0.0
    angle: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if not -np.pi / 2 <= self.angle <= np.pi / 2:
            raise ValueError("angle must lie in [-pi/2, pi/2]")


@dataclass(frozen=True)
class RfScene:
    """LO plane wave plus N incoming signal plane waves at one carrier."""

    lo: PlaneWave
    signals: tuple[PlaneWave, ...] = field(default_factory=tuple)
    carrier_freq: float = 2.03e9

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        if self.lo.amplitude <= 0:
            raise ValueError("LO amplitude must be strictly positive")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be strictly positive")

    @property
    def wavenumber(self) -> float:
        return 2 * np.pi * self.carrier_freq / SPEED_OF_LIGHT

    @property
    def rf_wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def total_signal_amplitude(self) -> float:
        """Sum of the (nonnegative) signal amplitudes: 0 means no signal."""
        return sum(s.amplitude for s in self.signals)

    @property
    def lo_dominance_ratio(self) -> float:
        total = self.total_signal_amplitude
        return np.inf if total == 0 else self.lo.amplitude / total

    @property
    def delta_ks(self) -> np.ndarray:
        """Beat wavenumbers k*(sin(theta_0) - sin(theta_i)), rad/m."""
        k = self.wavenumber
        return np.array([k * (np.sin(self.lo.angle) - np.sin(s.angle))
                         for s in self.signals])

    @property
    def delta_phis(self) -> np.ndarray:
        """Signal phases relative to the LO phase."""
        return np.array([s.phase - self.lo.phase for s in self.signals])

    def is_identifiable(self) -> bool:
        """True when all beat wavenumbers are distinct and nonzero: more
        than 1e-9 of the wavenumber from zero and from each other."""
        dks = np.append(self.delta_ks, 0.0)
        diffs = np.abs(dks[:, None] - dks[None, :])
        np.fill_diagonal(diffs, np.inf)
        return bool(diffs.min() > 1e-9 * max(self.wavenumber, 1.0))


def field_intensity(scene: RfScene, x,
                    lo_amplitudes=None) -> np.ndarray | float:
    """|E_RF(x)|^2 expanded term by term: the self-terms, then the beat of
    every pair of waves, LO first, so the LO-signal beats come first.

    Given lo_amplitudes, C LO amplitudes (V/m), each strictly positive as
    RfScene's, the result gains a leading axis of C rows, row c for the
    scene with its LO amplitude set to lo_amplitudes[c]: a column of LO
    amplitudes broadcast against x, the beat cosines and signal-signal
    terms computed once, each element taking a one-scene call's operations
    in order, so row c equals that call bit for bit.
    """
    amplitudes = ((scene.lo.amplitude,) if lo_amplitudes is None
                  else tuple(map(float, lo_amplitudes)))
    if not all(a > 0 for a in amplitudes):
        raise ValueError("LO amplitude must be strictly positive")
    peak = max(amplitudes, default=0.0) + scene.total_signal_amplitude
    if peak ** 2 == np.inf:  # |E|^2 <= peak^2; a finite peak's ** raises
        raise OverflowError("|E|^2 is out of the float range")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    sigs = scene.signals
    lo = np.reshape(amplitudes, (-1,) + (1,) * x.ndim)
    power = np.sum(np.array([s.amplitude for s in sigs])**2)
    # Python's a**2: numpy's lo**2 rounds ~1 amplitude in 900 otherwise.
    out = np.reshape([a**2 + power for a in amplitudes],
                     lo.shape) + np.zeros(x.shape)
    for (e, a), (f, b) in itertools.combinations(
            [(lo, scene.lo)] + [(s.amplitude, s) for s in sigs], 2):
        out += 2 * e * f * np.cos(scene.wavenumber * (
            np.sin(a.angle) - np.sin(b.angle)) * x - (b.phase - a.phase))
    return out[0] if lo_amplitudes is None else out


def linearization_constants(params: AtomicParams) -> tuple[float, float]:
    """Constants (C, beta) of the algebraic absorption model.

    C scales the dimensionless intensity response into an absorption
    coefficient (1/m); beta maps field intensity (V/m)^2 into the shift of
    the two-photon resonance (rad/s).
    """
    d_cr = params.coupling_detuning + params.rf_detuning
    c_scale = (2 * np.pi * params.atom_density * params.probe_dipole**2
               * params.probe_wavenumber * params.decay_21
               / (VACUUM_PERMITTIVITY * REDUCED_PLANCK))
    beta = params.rf_dipole**2 / (4 * REDUCED_PLANCK**2 * d_cr)
    return c_scale, beta


def intensity_response(params: AtomicParams, s) -> np.ndarray | float:
    """Dimensionless absorption response f(s) vs field intensity s=(V/m)^2.

    f(s) = 1 / (gamma_21^2 + (Omega_c^2/4)^2 / (Delta_c - beta*s)^2);
    C*f(s) reproduces k_pr * Im(chi) of the simplified susceptibility.
    """
    s = np.asarray(s, dtype=float)
    _, beta = linearization_constants(params)
    shifted = params.coupling_detuning - beta * s
    if np.any(shifted == 0):
        raise SingularPoint("coupling detuning equals the intensity shift")
    q = params.coupling_rabi**2 / 4
    return 1.0 / (params.decay_21**2 + q**2 / (shifted * shifted))


def intensity_response_derivative(params: AtomicParams,
                                  s) -> np.ndarray | float:
    """Derivative f'(s) of the intensity response, per (V/m)^2."""
    s = np.asarray(s, dtype=float)
    _, beta = linearization_constants(params)
    shifted = params.coupling_detuning - beta * s
    if np.any(shifted == 0):
        raise SingularPoint("coupling detuning equals the intensity shift")
    q = params.coupling_rabi**2 / 4
    denom = (params.decay_21**2 + q**2 / shifted**2) ** 2
    return -2 * beta * q**2 / shifted**3 / denom


def absorption_dc(params: AtomicParams, scene: RfScene,
                  lo_amplitudes=None) -> np.ndarray | float:
    """Uniform absorption coefficient of the LO-only field, 1/m: the exact
    absorption of the scene without its signals, one value per LO
    amplitude given (see field_intensity)."""
    return absorption_exact(params, replace(scene, signals=()), 0.0,
                            lo_amplitudes)


def absorption_exact(params: AtomicParams, scene: RfScene, x,
                     lo_amplitudes=None) -> np.ndarray | float:
    """Exact local absorption coefficient alpha(x) = C*f(|E_RF(x)|^2), one
    row per LO amplitude given (see field_intensity)."""
    c_scale, _ = linearization_constants(params)
    return c_scale * intensity_response(
        params, field_intensity(scene, x, lo_amplitudes))


def modulation_amplitudes(params: AtomicParams, scene: RfScene) -> np.ndarray:
    """Per-target absorption modulation amplitudes 2*C*A0*A_i*f'(A0^2), 1/m.

    Warns when the scene is outside the LO-dominant regime; the linear
    model degrades gracefully but its error grows like 1/ratio.
    """
    if scene.lo_dominance_ratio < LO_RATIO_WARN_THRESHOLD:
        warnings.warn(
            "LO-to-signal amplitude ratio below 10; linearized absorption "
            "model may be inaccurate", LoDominanceWarning, stacklevel=2)
    c_scale, _ = linearization_constants(params)
    fprime = intensity_response_derivative(params, scene.lo.amplitude**2)
    amps = np.array([s.amplitude for s in scene.signals])
    return 2 * c_scale * scene.lo.amplitude * amps * fprime


def absorption_linearized(params: AtomicParams, scene: RfScene,
                          x) -> np.ndarray | float:
    """LO-dominant linearization: alpha_DC plus one cosine per target."""
    x = np.asarray(x, dtype=float)
    out = absorption_dc(params, scene) + np.zeros(x.shape)
    mods = modulation_amplitudes(params, scene)
    for a_mod, dk, dphi in zip(mods, scene.delta_ks, scene.delta_phis):
        out = out + a_mod * np.cos(dk * x - dphi)
    return out
