"""Scene builders used by the experiment sweeps: targets at given
bearings, and a scene with its LO rescaled to a new ratio.

The default amplitudes keep field intensities in the linear-response
region of the vapor (well below the two-photon resonance crossing), where
the LO-dominant model error scales cleanly as 1/ratio.
"""

from __future__ import annotations

import numpy as np

from .physics import PlaneWave, RfScene

DEFAULT_LO_ANGLE = np.pi / 2
DEFAULT_LO_RATIO = 20.0
DEFAULT_SIGNAL_AMPLITUDE = 1e-6  # V/m
# Relative phases of the targets of a two-target scene; the anti-phase
# choice makes the weak-LO cross-term distortion representative rather
# than accidentally self-cancelling.
DEFAULT_TWO_TARGET_PHASES = (0.0, np.pi)


def scene_from_angles(angles_deg, lo_ratio: float = DEFAULT_LO_RATIO,
                      carrier_freq: float = RfScene.carrier_freq,
                      lo_angle: float = DEFAULT_LO_ANGLE) -> RfScene:
    """Equal-amplitude targets at the given bearings (in anti-phase if two,
    else at phase 0) with the LO at lo_ratio times their summed amplitude."""
    angles_deg = tuple(angles_deg)
    phases = (DEFAULT_TWO_TARGET_PHASES if len(angles_deg) == 2
              else (0.0,) * len(angles_deg))
    signals = tuple(PlaneWave(DEFAULT_SIGNAL_AMPLITUDE, ph, np.deg2rad(a))
                    for a, ph in zip(angles_deg, phases))
    lo = PlaneWave(lo_ratio * DEFAULT_SIGNAL_AMPLITUDE * len(angles_deg),
                   0.0, lo_angle)
    return RfScene(lo=lo, signals=signals, carrier_freq=carrier_freq)


def with_lo_ratio(scene: RfScene, lo_ratio: float) -> RfScene:
    """Same signals, LO amplitude rescaled to the requested ratio."""
    total = scene.total_signal_amplitude
    if total == 0:
        raise ValueError("scene has no signals to set a ratio against")
    lo = PlaneWave(lo_ratio * total, scene.lo.phase, scene.lo.angle)
    return RfScene(lo=lo, signals=scene.signals,
                   carrier_freq=scene.carrier_freq)


def true_doas(scene: RfScene) -> np.ndarray:
    return np.sort(np.array([s.angle for s in scene.signals]))
