"""The CSV writers against the row-by-row renderers in oracles, and the
column formatter against formatting each value on its own."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import (
    crlb_csv_rowwise,
    fluorescence_csv_rowwise,
    linearization_csv_rowwise,
    measurement_csv_rowwise,
    sampling_demo_csv_rowwise,
    sweep_csv_rowwise,
)
from rydberg_doa import serialize
from rydberg_doa.crlb import CrlbReport
from rydberg_doa.experiments import (
    LinearizationCheck,
    SamplingDemoCurve,
    SamplingDemoResult,
    SweepResult,
)
from rydberg_doa.sensing import FluorescenceProfile, MeasurementVector

# every float64 bit pattern: subnormals, both zeros, infinities, NaNs
# with any payload and sign
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
float64s = st.one_of(st.floats(width=64), bit_patterns)


@given(st.lists(float64s, max_size=40))
@example([])
@example([-0.0])
@example([5e-324])
@example([1.7976931348623157e308])
@example([float("nan"), float("inf"), float("-inf"), 0.0, -0.0])
def test_fmt_matches_per_value_format(values):
    assert serialize._fmt(values) == [f"{v:.17g}" for v in values]


def _grid(n=257):
    return np.linspace(0.0, 0.123456789, n)


def _power(n=257, seed=0):
    rng = np.random.default_rng(seed)
    power = rng.random(n) * 10.0 ** rng.integers(-40, 40, n)
    power[:4] = (0.0, -0.0, 5e-324, 1.7976931348623157e308)
    return power


def _profile(kappa):
    power = _power()
    return FluorescenceProfile(positions=_grid(), probe_power=power,
                               fluorescence=kappa * power)


def _signed_zero_profile():
    # equal by value, not by bytes: a value-keyed reuse would print "0"
    # where the fluorescence column holds -0.0
    power = np.array([0.0, 1.5, 0.0, -2.0])
    return FluorescenceProfile(positions=np.arange(4.0), probe_power=power,
                               fluorescence=np.array([-0.0, 1.5, 0.0, -2.0]))


def _small_profile():
    power = np.array([1.0, -0.25, 1.2345678901234567e-36, -1e-36, 0.1,
                      2.0**60])
    return FluorescenceProfile(
        positions=np.array([0.0, 1.0, 2.5e-3, 7.0, 1e-36, 3.0]),
        probe_power=power, fluorescence=-3.0 * power)


@pytest.mark.parametrize("profile", [
    _profile(1.0), _profile(0.5), _signed_zero_profile(), _small_profile(),
], ids=["kappa_1", "kappa_0.5", "signed_zero", "kappa_-3"])
def test_fluorescence_csv_bytes(tmp_path, profile):
    path = tmp_path / "fluorescence.csv"
    serialize.write_fluorescence_csv(profile, path)
    assert path.read_bytes() == fluorescence_csv_rowwise(profile).encode()


@pytest.mark.parametrize("values", ["sine", "centers", "signed_zero"])
def test_measurement_csv_bytes(tmp_path, geometry, values):
    k = geometry.channel_count
    y = {"sine": np.sin(0.7 * np.arange(k)),
         "centers": geometry.centers.copy(),
         "signed_zero": np.where(np.arange(k) % 2, 0.0, -0.0)}[values]
    measurement = MeasurementVector(values=y, geometry=geometry)
    path = tmp_path / "measurement.csv"
    serialize.write_measurement_csv(measurement, path)
    assert path.read_bytes() == measurement_csv_rowwise(measurement).encode()


@pytest.mark.parametrize("thetas", [(0.3, -0.5, 0.0), (0.01, 0.02, -0.0)])
def test_crlb_csv_bytes(tmp_path, thetas):
    eye = np.eye(3)
    report = CrlbReport(fim=eye, effective_fim_dk=eye, crlb_theta=eye,
                        per_target_std=[0.01, 0.02, 0.0],
                        condition_number=1.0)
    path = tmp_path / "crlb.csv"
    serialize.write_crlb_csv(report, np.array(thetas), path)
    assert path.read_bytes() == crlb_csv_rowwise(report, thetas).encode()


@pytest.mark.parametrize("bounds", [None, (0.001, 0.002, -0.0, np.nan, 0.5)],
                         ids=["no_bounds", "bounds"])
def test_sweep_csv_bytes(tmp_path, bounds):
    result = SweepResult(values=(10, 20.5, 1e-3, -0.0, 40.0),
                         rmse_rad=(0.01, np.nan, np.inf, 0.0, -0.0),
                         crlb_std_rad=bounds, trials=100,
                         failures=(0, 100, 3, 0, 7))
    path = tmp_path / "sweep.csv"
    serialize.write_sweep_csv(result, path)
    text = path.read_text()
    assert text == sweep_csv_rowwise(result)
    assert text.splitlines()[2].startswith("20.5,,")


def test_linearization_csv_bytes(tmp_path):
    weak = _power(seed=1)
    strong = np.where(np.arange(257) % 3, _power(seed=2), 0.0)
    check = LinearizationCheck(
        positions=_grid(), exact_weak=weak, linear_weak=weak.copy(),
        exact_strong=strong, linear_strong=np.where(strong == 0, -0.0,
                                                    strong),
        rms_weak=0.0, rms_strong=0.0, normalized_rms_weak=0.0,
        normalized_rms_strong=0.0)
    path = tmp_path / "linearization_check.csv"
    serialize.write_linearization_csv(check, path)
    assert path.read_bytes() == linearization_csv_rowwise(check).encode()


def test_sampling_demo_csv_bytes(tmp_path):
    angles = np.arange(-90.0, 90.25, 0.5)
    power = np.cos(np.deg2rad(angles)) ** 2
    result = SamplingDemoResult(case="window_width", angles_deg=angles,
                                curves=(SamplingDemoCurve("width_1wl", power),
                                        SamplingDemoCurve("width_2wl",
                                                          power.copy())))
    path = tmp_path / "sampling_demo.csv"
    serialize.write_sampling_demo_csv(result, path)
    assert path.read_bytes() == sampling_demo_csv_rowwise(result).encode()
