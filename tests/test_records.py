"""Every result record holds a read-only copy of each array it is given,
so the caller's arrays stay writable and apart from the record; a
geometry computes its window centers and edges once, read-only; a
measurement holds finite values only.
"""
import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rydberg_doa.crlb import CrlbReport
from rydberg_doa.errors import RydbergDoaError
from rydberg_doa.estimation import EstimationResult
from rydberg_doa.experiments import LinearizationCheck, SamplingDemoResult
from rydberg_doa.sensing import (
    FluorescenceProfile,
    MeasurementVector,
    SensorGeometry,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "rydberg_doa"
GEOMETRY = SensorGeometry(cell_length=1.0, window_width=0.2, spacing=0.25)


def _ramp(*shape, dtype=float) -> np.ndarray:
    return np.arange(1, 1 + int(np.prod(shape))).reshape(shape).astype(dtype)


def _inputs(record) -> tuple[dict, dict]:
    """Fresh keyword arguments of a record: its arrays, then the rest. A
    CrlbReport is a stack of two, so its condition numbers are an array."""
    if record is MeasurementVector:
        return {"values": _ramp(GEOMETRY.channel_count)}, \
            {"geometry": GEOMETRY}
    if record is FluorescenceProfile:
        return {"positions": np.linspace(0.0, 1.0, 5),
                "optical_depth": _ramp(5)}, {}
    if record is CrlbReport:
        return {"fim": _ramp(2, 3, 3), "effective_fim_dk": _ramp(2, 1, 1),
                "crlb_theta": _ramp(2, 1, 1), "per_target_std": _ramp(2, 1),
                "condition_number": _ramp(2)}, {}
    if record is EstimationResult:
        return {"spatial_frequencies": _ramp(3, 2), "doas": _ramp(3, 2),
                "roots": _ramp(3, 2, dtype=complex) * 1j,
                "lpc_coefficients": _ramp(3, 4),
                "lpc_residual_norm": _ramp(3),
                "clamped_flags": np.zeros((3, 2), dtype=bool),
                "rank_deficient": np.zeros(3, dtype=bool),
                "root_residual": _ramp(3), "usable_pairs": _ramp(3, dtype=int),
                "failure": np.zeros(3, dtype=np.int8)}, {}
    if record is LinearizationCheck:
        rows = {name: _ramp(2, 6) for name in ("positions", "exact", "linear")}
        return rows | {"residuals": np.array([0.5, 0.25])}, \
            {"ratios": (1.0, 10.0)}
    return {"angles_deg": _ramp(4), "power": _ramp(2, 4)}, \
        {"labels": ("a", "b")}


def _record_case(record, name):
    def build():
        arrays, rest = _inputs(record)
        return getattr(record(**arrays, **rest), name), arrays[name]
    return pytest.param(build, id=f"{record.__name__}.{name}")


def _regime_case(name, row, regime):
    """One LO regime's row of a LinearizationCheck array: a read-only copy
    of the caller's row on its own."""
    def build():
        arrays, rest = _inputs(LinearizationCheck)
        held = getattr(LinearizationCheck(**arrays, **rest), name)[row]
        return held, arrays[name][row]
    return pytest.param(build, id=f"LinearizationCheck.{name}_{regime}")


def _geometry_case(name, index=None):
    def build():
        # The caller's own arrays are those it computes from the lengths.
        geometry = replace(GEOMETRY)
        half = geometry.window_width / 2
        centers = half + geometry.spacing * np.arange(geometry.channel_count)
        if index is None:
            return geometry.centers, centers
        return geometry.window_edges[index], (centers - half,
                                              centers + half)[index]
    label = name if index is None else f"{name}[{index}]"
    return pytest.param(build, id=f"SensorGeometry.{label}")


RECORDS = (MeasurementVector, FluorescenceProfile, CrlbReport,
           EstimationResult, LinearizationCheck, SamplingDemoResult)
CASES = [_record_case(record, name) for record in RECORDS
         for name in _inputs(record)[0]] + [
    _regime_case(name, row, regime) for name in ("exact", "linear")
    for row, regime in enumerate(("weak", "strong"))] + [
    _geometry_case("centers"), _geometry_case("window_edges", 0),
    _geometry_case("window_edges", 1)]


@pytest.mark.parametrize("build", CASES)
def test_a_record_holds_a_read_only_copy_of_each_array(build):
    held, given = build()
    np.testing.assert_array_equal(held, given)
    assert held.dtype == given.dtype and held.shape == given.shape
    assert not held.flags.writeable
    before = held.copy()
    # a later write to the caller's array neither raises nor reaches it
    first = given.flat[0]
    given.flat[0] = not first if given.dtype == bool else first + 1
    assert not np.array_equal(given, before)
    np.testing.assert_array_equal(held, before)


def test_a_one_row_bound_keeps_its_float_condition_number():
    arrays, _ = _inputs(CrlbReport)
    arrays = {name: value[0] for name, value in arrays.items()}
    report = CrlbReport(**arrays)
    assert type(report.condition_number) is float
    assert report.condition_number == 1.0


def test_a_geometry_computes_its_windows_once_outside_eq_hash_repr():
    geometry = replace(GEOMETRY)
    assert geometry.centers is geometry.centers
    assert geometry.window_edges is geometry.window_edges
    assert geometry == GEOMETRY and hash(geometry) == hash(GEOMETRY)
    assert repr(geometry) == (
        "SensorGeometry(cell_length=1.0, window_width=0.2, spacing=0.25, "
        "grid_points_per_rf_wavelength=32, channel_count=4)")
    longer = replace(geometry, cell_length=1.5)
    assert longer.channel_count == 6 and len(longer.centers) == 6
    np.testing.assert_array_equal(longer.centers[:4], geometry.centers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["vector", "stack"])
def test_a_measurement_rejects_a_non_finite_value(bad, shape):
    values = _ramp(*shape)
    values.flat[-2] = bad
    with pytest.raises(RydbergDoaError,
                       match="^measurement values must be finite$"):
        MeasurementVector(values=values, geometry=GEOMETRY)


def test_only_read_only_copy_sets_an_arrays_writeable_flag():
    # One rule makes every record's arrays read-only: a second copy of it
    # in src/ would let a record drift from the others.
    helper = next(node for node in ast.parse(
        (SRC / "errors.py").read_text()).body
        if getattr(node, "name", None) == "read_only_copy")
    allowed = {("errors.py", number)
               for number in range(helper.lineno, helper.end_lineno + 1)}
    setters = re.compile(r"flags\.writeable|setflags\(|flags\[")
    found = [(path.name, number)
             for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if setters.search(line)]
    assert found and set(found) <= allowed, found
