"""File formats: CSV/JSON writers, all atomic (write-then-rename), for
profiles, measurements, estimation results, bound reports and sweeps.
One column formatter, _fmt, writes CSV floats with 17 significant digits;
identical runs give equal bytes.
"""

from __future__ import annotations

import csv
import json
import os
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
    """Write text (UTF-8) to a new file in path's directory, then rename it
    over path. The file gets mode 0o666 less the umask, as open() gives a
    new file; a missing parent directory is created."""
    path = Path(path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header: str, *columns) -> str:
    """The header line, then one line per row of the columns. A list column
    holds field text; any other holds numbers for _fmt."""
    texts = [col if isinstance(col, list) else _fmt(col) for col in columns]
    return "\n".join([header, *map(",".join, zip(*texts))]) + "\n"


def write_fluorescence_csv(profile: FluorescenceProfile,
                           path: str | Path) -> None:
    """The image (FluorescenceProfile.fluorescence) at each position."""
    atomic_write_text(path, _csv_text("x_m,fluorescence", profile.positions,
                                      profile.fluorescence))


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


def write_estimation_json(result: EstimationResult,
                          path: str | Path) -> None:
    atomic_write_text(path, json.dumps({
        "spatial_frequencies_rad_per_m": result.spatial_frequencies.tolist(),
        "doas_rad": result.doas.tolist(),
        "doas_deg": np.rad2deg(result.doas).tolist(),
        "roots": [[float(z.real), float(z.imag)] for z in result.roots],
        "lpc_coefficients": result.lpc_coefficients.tolist(),
        "lpc_residual_norm": float(result.lpc_residual_norm),
        "clamped_flags": result.clamped_flags.tolist(),
        "rank_deficient": bool(result.rank_deficient),
    }, indent=2) + "\n")


def _matrix_to_dict(matrix: np.ndarray) -> dict:
    return {"rows": matrix.shape[0], "cols": matrix.shape[1],
            "data_row_major": matrix.ravel().tolist()}


def write_crlb_json(report: CrlbReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps({
        "fim": _matrix_to_dict(report.fim),
        "effective_fim_dk": _matrix_to_dict(report.effective_fim_dk),
        "crlb_theta": _matrix_to_dict(report.crlb_theta),
        "per_target_std_rad": report.per_target_std.tolist(),
        "per_target_std_deg": np.rad2deg(report.per_target_std).tolist(),
        "condition_number": float(report.condition_number),
    }, indent=2) + "\n")


def write_crlb_csv(report: CrlbReport, thetas_rad: np.ndarray,
                   path: str | Path) -> None:
    std = report.per_target_std
    atomic_write_text(path, _csv_text(
        "target,theta_deg,crlb_std_deg", [str(i + 1) for i in range(len(std))],
        np.rad2deg(thetas_rad), np.rad2deg(std)))


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    n = len(result.values)
    rmse = np.rad2deg([cell.rmse_rad for cell in result.cells])
    atomic_write_text(path, _csv_text(
        "axis_value,rmse_deg,crlb_deg,trials,failures", result.values,
        ["" if nan else t for t, nan in zip(_fmt(rmse), np.isnan(rmse))],
        np.rad2deg(result.crlb_std_rad) if result.crlb_std_rad else [""] * n,
        [str(cell.trials) for cell in result.cells],
        [str(cell.failures) for cell in result.cells]))


def write_linearization_csv(check: LinearizationCheck,
                            path: str | Path) -> None:
    atomic_write_text(path, _csv_text(
        "x_m,alpha_exact_weak,alpha_lin_weak,alpha_exact_strong,"
        "alpha_lin_strong", check.positions, check.exact_weak,
        check.linear_weak, check.exact_strong, check.linear_strong))


def write_sampling_demo_csv(result: SamplingDemoResult,
                            path: str | Path) -> None:
    atomic_write_text(path, _csv_text(
        ",".join(["angle_deg"] + [f"power_{lab}" for lab in result.labels]),
        result.angles_deg, *result.power))


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
