"""File formats: CSV/JSON writers, all atomic (write-then-rename), for
profiles, measurements, estimation results, bound reports and sweeps.
One column formatter, _fmt, writes CSV floats with 17 significant digits,
once per bit-identical column of a file; identical runs give equal bytes.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .crlb import CrlbReport
from .errors import SchemaError
from .estimation import EstimationResult
from .experiments import LinearizationCheck, SamplingDemoResult, SweepResult
from .sensing import FluorescenceProfile, MeasurementVector, SensorGeometry


def _fmt(values) -> list[str]:
    """Each value's .17g text, made by one %-format call for the column."""
    values = np.asarray(values, dtype=float).tolist()
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: str, *columns) -> str:
    """The header line, then one line per row of the columns. A list column
    holds field text; any other holds numbers for _fmt, formatted once per
    byte pattern (not per value: 0.0 and -0.0 print apart)."""
    done: dict[bytes, list[str]] = {}
    texts = []
    for col in columns:
        if not isinstance(col, list):
            key = np.asarray(col, dtype=float).tobytes()
            if key not in done:
                done[key] = _fmt(col)
            col = done[key]
        texts.append(col)
    return "\n".join([header, *map(",".join, zip(*texts))]) + "\n"


def write_fluorescence_csv(profile: FluorescenceProfile,
                           path: str | Path) -> None:
    atomic_write_text(path, _csv_text(
        "x_m,probe_power,fluorescence", profile.positions,
        profile.probe_power, profile.fluorescence))


def write_measurement_csv(measurement: MeasurementVector,
                          path: str | Path) -> None:
    values = measurement.values
    atomic_write_text(path, _csv_text(
        "j,x_j_m,y_tilde", [str(j + 1) for j in range(len(values))],
        measurement.geometry.centers, values))


def read_measurement_csv(path: str | Path
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Parse a measurement CSV back into (window centers, values)."""
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["j", "x_j_m", "y_tilde"]:
            raise SchemaError(f"{path}: expected header j,x_j_m,y_tilde")
        centers, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise SchemaError(f"{path}: row {lineno} has {len(row)} "
                                  "fields, expected 3")
            for field, column in zip(row[1:], (centers, values)):
                try:
                    column.append(float(field))
                    if not abs(column[-1]) < np.inf:  # nan and +-inf
                        raise ValueError("could not convert string to "
                                         f"finite float: {field!r}")
                except ValueError as exc:
                    raise SchemaError(f"{path}: row {lineno}: {exc}") from None
    if len(values) < 2:
        raise SchemaError(f"{path}: need at least two channels")
    return np.array(centers), np.array(values)


def geometry_from_centers(centers: np.ndarray) -> SensorGeometry:
    """Minimal geometry consistent with a list of window centers.

    Prony is shift invariant and estimation reads only the pitch and the
    channel count, so the windows are placed flush with x = 0 at the same
    pitch, whatever the first center; the window width is nominal.
    """
    centers = np.asarray(centers, dtype=float)
    diffs = np.diff(centers)
    spacing = float(diffs.mean())
    if spacing <= 0 or not np.allclose(diffs, spacing,
                                       rtol=1e-6, atol=1e-12 * abs(spacing)):
        raise SchemaError("window centers must be uniformly increasing")
    return SensorGeometry(spacing * len(centers), spacing / 2, spacing)


def estimation_to_dict(result: EstimationResult) -> dict:
    return {
        "spatial_frequencies_rad_per_m": [float(v) for v in
                                          result.spatial_frequencies],
        "doas_rad": [float(v) for v in result.doas],
        "doas_deg": [float(np.rad2deg(v)) for v in result.doas],
        "roots": [[float(z.real), float(z.imag)] for z in result.roots],
        "lpc_coefficients": [float(v) for v in result.lpc_coefficients],
        "lpc_residual_norm": float(result.lpc_residual_norm),
        "clamped_flags": [bool(v) for v in result.clamped_flags],
        "rank_deficient": bool(result.rank_deficient),
    }


def write_estimation_json(result: EstimationResult,
                          path: str | Path) -> None:
    atomic_write_text(path, json.dumps(estimation_to_dict(result),
                                       indent=2) + "\n")


def _matrix_to_dict(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    return {"rows": matrix.shape[0], "cols": matrix.shape[1],
            "data_row_major": [float(v) for v in matrix.ravel()]}


def crlb_to_dict(report: CrlbReport) -> dict:
    return {
        "fim": _matrix_to_dict(report.fim),
        "effective_fim_dk": _matrix_to_dict(report.effective_fim_dk),
        "crlb_theta": _matrix_to_dict(report.crlb_theta),
        "per_target_std_rad": [float(v) for v in report.per_target_std],
        "per_target_std_deg": [float(np.rad2deg(v)) for v in
                               report.per_target_std],
        "condition_number": float(report.condition_number),
    }


def write_crlb_json(report: CrlbReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(crlb_to_dict(report), indent=2) + "\n")


def write_crlb_csv(report: CrlbReport, thetas_rad: np.ndarray,
                   path: str | Path) -> None:
    std = report.per_target_std
    atomic_write_text(path, _csv_text(
        "target,theta_deg,crlb_std_deg", [str(i + 1) for i in range(len(std))],
        np.rad2deg(thetas_rad), np.rad2deg(std)))


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    n = len(result.values)
    rmse = np.rad2deg(result.rmse_rad)
    atomic_write_text(path, _csv_text(
        "axis_value,rmse_deg,crlb_deg,trials,failures", result.values,
        ["" if nan else t for t, nan in zip(_fmt(rmse), np.isnan(rmse))],
        np.rad2deg(result.crlb_std_rad) if result.crlb_std_rad else [""] * n,
        [str(result.trials)] * n, [str(f) for f in result.failures]))


def write_linearization_csv(check: LinearizationCheck,
                            path: str | Path) -> None:
    atomic_write_text(path, _csv_text(
        "x_m,alpha_exact_weak,alpha_lin_weak,alpha_exact_strong,"
        "alpha_lin_strong", check.positions, check.exact_weak,
        check.linear_weak, check.exact_strong, check.linear_strong))


def write_sampling_demo_csv(result: SamplingDemoResult,
                            path: str | Path) -> None:
    atomic_write_text(path, _csv_text(
        ",".join(["angle_deg"] + [f"power_{c.label}" for c in result.curves]),
        result.angles_deg, *(c.power for c in result.curves)))


def write_result(result, path: str | Path) -> None:
    """Write a sweep study's result with the CSV writer for its type."""
    if isinstance(result, SweepResult):
        write_sweep_csv(result, path)
    elif isinstance(result, LinearizationCheck):
        write_linearization_csv(result, path)
    else:
        write_sampling_demo_csv(result, path)


def write_manifest_json(payload: dict, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                      + "\n")
