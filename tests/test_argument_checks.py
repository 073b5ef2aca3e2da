"""Each library argument check raises its exception class with its message."""
import re

import numpy as np
import pytest

from rydberg_doa import estimation, physics, scenarios, sensing
from rydberg_doa.errors import InsufficientSamples, SingularPoint
from rydberg_doa.experiments import ScenarioConfig
from rydberg_doa.physics import AtomicParams, PlaneWave, RfScene

PARAMS = AtomicParams()
SCENE = scenarios.scene_from_angles((-30.0, 45.0))
LAM = SCENE.rf_wavelength
GEOMETRY = sensing.SensorGeometry(4 * LAM, LAM / 4, LAM / 4)


def estimation_result_with_mismatched_shapes():
    fields = {name: np.zeros(2) for name in (
        "spatial_frequencies", "roots", "lpc_coefficients",
        "lpc_residual_norm", "clamped_flags", "rank_deficient",
        "root_residual", "usable_pairs", "failure")}
    return estimation.EstimationResult(doas=np.zeros(3), **fields)


def singular_derivative():
    _, beta = physics.linearization_constants(PARAMS)
    return physics.intensity_response_derivative(
        PARAMS, PARAMS.coupling_detuning / beta)


@pytest.mark.parametrize("call, error, message", [
    (estimation_result_with_mismatched_shapes, ValueError,
     "frequency and DoA counts must agree"),
    (lambda: estimation.solve_lpc(np.empty((0, 2)), np.empty(0)),
     InsufficientSamples, "empty prediction system"),
    (lambda: estimation.char_poly_roots(np.array([np.nan, 1.0])),
     ValueError, "prediction coefficients must be finite"),
    (lambda: estimation.frequencies_from_roots(np.ones(2), 0.0),
     ValueError, "spacing must be strictly positive"),
    (lambda: estimation.doa_from_frequency(1.0, -1.0, 0.0),
     ValueError, "wavenumber must be strictly positive"),
    (lambda: ScenarioConfig(SCENE, GEOMETRY, estimation.PronyConfig(4, 2),
                            PARAMS, None, trials=0),
     ValueError, "trials must be at least 1"),
    (lambda: physics.field_intensity(SCENE, np.array([0.0, np.inf])),
     ValueError, "x must be finite"),
    (singular_derivative, SingularPoint,
     "coupling detuning equals the intensity shift"),
    (lambda: scenarios.with_lo_ratio(RfScene(lo=PlaneWave(1e-5)), 20.0),
     ValueError, "scene has no signals to set a ratio against"),
    (lambda: sensing.MeasurementVector(np.zeros(GEOMETRY.channel_count),
                                       GEOMETRY, noise_sigma=-1.0),
     ValueError, "noise_sigma must be nonnegative"),
    (lambda: sensing.check_sampling(GEOMETRY, 0.0),
     ValueError, "rf_wavelength must be strictly positive"),
], ids=["estimation-result", "solve-lpc", "char-poly-roots",
        "frequencies-from-roots", "doa-from-frequency", "scenario-config",
        "field-intensity", "response-derivative", "with-lo-ratio",
        "measurement-noise-sigma", "check-sampling"])
def test_argument_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
