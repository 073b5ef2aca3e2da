"""The CSV writers against the row-by-row renderers in oracles, and the
column formatter against formatting each value on its own, and the
atomic write's file mode and clean-up."""

import os
import stat

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
    McResult,
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


FLUORESCENCE_HEADER = "x_m,fluorescence"


def _columns(kappa):
    return _grid(), kappa * _power()


def _signed_zero_columns():
    # equal by value, not by bytes: a value-keyed reuse would print "0"
    # where a column holds -0.0
    return (np.array([0.0, -0.0, 1.5, -0.0]),
            np.array([-0.0, 0.0, 1.5, -2.0]))


def _small_columns():
    power = np.array([1.0, -0.25, 1.2345678901234567e-36, -1e-36, 0.1,
                      2.0**60])
    return np.array([0.0, 1.0, 2.5e-3, 7.0, 1e-36, 3.0]), -3.0 * power


@pytest.mark.parametrize("columns", [
    _columns(1.0), _columns(0.5), _signed_zero_columns(), _small_columns(),
], ids=["kappa_1", "kappa_0.5", "signed_zero", "kappa_-3"])
def test_fluorescence_csv_bytes(columns):
    # positions and images beyond any profile's: zeros of both signs,
    # subnormals and values near overflow
    assert serialize._csv_text(FLUORESCENCE_HEADER, *columns) == \
        fluorescence_csv_rowwise(*columns)


def _depth(n=257):
    # images about 1, 0, subnormal and near overflow: exp(-745) is the
    # least subnormal, exp(709.7) is near the largest double
    rng = np.random.default_rng(0)
    depth = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 3, n)
    depth[:8] = (0.0, -0.0, 745.0, 800.0, -709.7, np.inf, -np.inf, np.nan)
    return depth


@pytest.mark.parametrize("depth", [_depth(), np.zeros(5)],
                         ids=["mixed", "transparent"])
def test_write_fluorescence_csv_bytes(tmp_path, depth):
    # one column beside the positions: the profile's image
    # exp(-optical_depth)
    profile = FluorescenceProfile(positions=_grid(depth.size),
                                  optical_depth=depth)
    path = tmp_path / "fluorescence.csv"
    serialize.write_fluorescence_csv(profile, path)
    assert path.read_bytes() == fluorescence_csv_rowwise(
        profile.positions, np.exp(-depth)).encode()


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
    cells = tuple(McResult(rmse, fails, 100) for rmse, fails in zip(
        (0.01, np.nan, np.inf, 0.0, -0.0), (0, 100, 3, 0, 7)))
    result = SweepResult(values=(10, 20.5, 1e-3, -0.0, 40.0), cells=cells,
                         crlb_std_rad=bounds)
    path = tmp_path / "sweep.csv"
    serialize.write_sweep_csv(result, path)
    text = path.read_text()
    assert text == sweep_csv_rowwise(result)
    assert text.splitlines()[2].startswith("20.5,,")


def test_sweep_csv_trials_are_each_cells_own(tmp_path):
    result = SweepResult(values=(1.0, 2.0), cells=(
        McResult(0.1, 0, 3), McResult(0.2, 1, 5)), crlb_std_rad=None)
    path = tmp_path / "sweep.csv"
    serialize.write_sweep_csv(result, path)
    rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["3", "5"]


def test_linearization_csv_bytes(tmp_path):
    weak = _power(seed=1)
    strong = np.where(np.arange(257) % 3, _power(seed=2), 0.0)
    check = LinearizationCheck(
        positions=(_grid(), _grid()), exact=(weak, strong),
        linear=(weak.copy(), np.where(strong == 0, -0.0, strong)),
        residuals=(0.0, 0.0), ratios=(1.0, 10.0))
    path = tmp_path / "linearization_check.csv"
    serialize.write_linearization_csv(check, path)
    assert path.read_bytes() == linearization_csv_rowwise(check).encode()


def test_sampling_demo_csv_bytes(tmp_path):
    angles = np.arange(-90.0, 90.25, 0.5)
    power = np.cos(np.deg2rad(angles)) ** 2
    result = SamplingDemoResult(angles_deg=angles,
                                labels=("width_1wl", "width_2wl"),
                                power=np.array([power, power.copy()]))
    path = tmp_path / "sampling_demo.csv"
    serialize.write_sampling_demo_csv(result, path)
    assert path.read_bytes() == sampling_demo_csv_rowwise(result).encode()


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            serialize.atomic_write_text(path, "a,b\n")
            serialize.atomic_write_text(tmp_path / "new.csv", "x\n")
            serialize.atomic_write_text(path, "c,d\n")  # over a file
        finally:
            os.umask(old)
        for written in (path, tmp_path / "new.csv"):
            assert stat.S_IMODE(written.stat().st_mode) == 0o666 & ~umask
        assert path.read_bytes() == b"c,d\n"

    def test_a_taken_temporary_name_is_drawn_again(self, tmp_path,
                                                   monkeypatch):
        # the first draw names an existing file, which O_EXCL refuses
        draws = iter([bytes(4), b"\x01" * 4])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        taken = tmp_path / "out.csv.00000000.tmp"
        taken.write_text("someone else's\n")
        serialize.atomic_write_text(tmp_path / "out.csv", "a,b\n")
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"
        assert taken.read_text() == "someone else's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.csv", taken.name]
        assert next(draws, None) is None

    def test_creates_missing_parent(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.json"
        serialize.atomic_write_text(path, "{}\n")
        assert path.read_bytes() == b"{}\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.json"]

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(serialize.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            serialize.atomic_write_text(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert path.read_text() == "old\n"

    def test_text_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "out.txt"
        serialize.atomic_write_text(path, "θ,λ\r\n" * 5000)
        assert path.read_bytes() == "θ,λ\r\n".encode() * 5000
