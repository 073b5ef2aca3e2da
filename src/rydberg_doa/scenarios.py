"""Canonical scenes and geometries used by the experiment sweeps and CLI.

The default operating point keeps field intensities in the linear-response
region of the vapor (well below the two-photon resonance crossing), where
the LO-dominant model error scales cleanly as 1/ratio.
"""

from __future__ import annotations

import numpy as np

from .physics import AtomicParams, PlaneWave, RfScene
from .sensing import SensorGeometry

DEFAULT_CARRIER_HZ = 2.03e9
DEFAULT_LO_ANGLE = np.pi / 2
DEFAULT_LO_RATIO = 20.0
DEFAULT_SIGNAL_AMPLITUDE = 1e-6  # V/m
DEFAULT_TWO_TARGET_DEG = (-30.0, 45.0)
# Relative phases of the two default targets; the anti-phase choice makes
# the weak-LO cross-term distortion representative rather than accidentally
# self-cancelling.
DEFAULT_TWO_TARGET_PHASES = (0.0, np.pi)


def default_params() -> AtomicParams:
    return AtomicParams()


def scene_from_angles(angles_deg, lo_ratio: float = DEFAULT_LO_RATIO,
                      amplitude: float = DEFAULT_SIGNAL_AMPLITUDE,
                      phases=None,
                      carrier_freq: float = DEFAULT_CARRIER_HZ,
                      lo_angle: float = DEFAULT_LO_ANGLE) -> RfScene:
    """Equal-amplitude targets at the given bearings with the LO amplitude
    set to lo_ratio times the summed signal amplitude."""
    angles_deg = tuple(angles_deg)
    if phases is None:
        phases = (DEFAULT_TWO_TARGET_PHASES[:len(angles_deg)]
                  if len(angles_deg) <= 2 else (0.0,) * len(angles_deg))
    signals = tuple(PlaneWave(amplitude, ph, np.deg2rad(a))
                    for a, ph in zip(angles_deg, phases))
    lo = PlaneWave(lo_ratio * amplitude * len(angles_deg), 0.0, lo_angle)
    return RfScene(lo=lo, signals=signals, carrier_freq=carrier_freq)


def two_target_scene(lo_ratio: float = DEFAULT_LO_RATIO,
                     carrier_freq: float = DEFAULT_CARRIER_HZ) -> RfScene:
    """The canonical two-target demo scene (-30 and 45 degrees)."""
    return scene_from_angles(DEFAULT_TWO_TARGET_DEG, lo_ratio,
                             carrier_freq=carrier_freq)


def with_lo_ratio(scene: RfScene, lo_ratio: float) -> RfScene:
    """Same signals, LO amplitude rescaled to the requested ratio."""
    total = scene.total_signal_amplitude
    if total == 0:
        raise ValueError("scene has no signals to set a ratio against")
    lo = PlaneWave(lo_ratio * total, scene.lo.phase, scene.lo.angle)
    return RfScene(lo=lo, signals=scene.signals,
                   carrier_freq=scene.carrier_freq)


def default_geometry(rf_wavelength: float, cell_wavelengths: float = 4.0,
                     window_wavelengths: float = 0.25,
                     spacing_wavelengths: float = 0.25,
                     grid_points_per_rf_wavelength: int = 256
                     ) -> SensorGeometry:
    """Compliant geometry: quarter-wave windows on a quarter-wave pitch."""
    return SensorGeometry(cell_wavelengths * rf_wavelength,
                          window_wavelengths * rf_wavelength,
                          spacing_wavelengths * rf_wavelength,
                          grid_points_per_rf_wavelength)


def true_doas(scene: RfScene) -> np.ndarray:
    return np.sort(np.array([s.angle for s in scene.signals]))
