"""Run configuration: strict JSON schema with unit-suffixed keys.

Every physical quantity carries an explicit unit in its key name (_hz,
_m, _deg, _v_per_m, or _wavelengths for lengths relative to the RF
carrier). Frequencies named _hz are ordinary frequencies and are scaled
by 2*pi into angular rates internally. Unknown keys are rejected with
their dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, build_at
from .estimation import PronyConfig
from .experiments import (
    CELL_SEED_STRIDE,
    SWEEP_KINDS,
    ScenarioConfig,
    SweepSpec,
)
from .physics import AtomicParams, PlaneWave, RfScene
from .sensing import SensorGeometry, snr_ratio


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings plus the parsed document for manifests."""

    scenario: ScenarioConfig
    output_dir: str
    verbosity: int
    echo: dict


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigParseError(f"missing required key '{path}{key}'")
    return mapping[key]


def _check_keys(mapping, allowed: set[str], path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigParseError(f"'{path.rstrip('.') or 'config'}' must be "
                               "an object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigParseError(
            f"unknown key '{path}{unknown[0]}' (allowed: "
            f"{', '.join(sorted(allowed))})")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParseError(f"'{path}' must be a number")
    if not math.isfinite(value):
        raise ConfigParseError(f"'{path}' must be finite")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigParseError(f"'{path}' must be an integer")
    return value


def _parse_wave(doc: dict, path: str, amplitude: float) -> PlaneWave:
    return build_at(
        path.rstrip("."), PlaneWave, amplitude=amplitude,
        phase=np.deg2rad(_number(doc.get("phase_deg", 0.0),
                                 path + "phase_deg")),
        angle=np.deg2rad(_number(_require(doc, "angle_deg", path),
                                 path + "angle_deg")))


def _parse_scene(doc: dict) -> RfScene:
    _check_keys(doc, {"carrier_freq_hz", "lo", "signals"}, "scene.")
    carrier = _number(_require(doc, "carrier_freq_hz", "scene."),
                      "scene.carrier_freq_hz")
    lo_doc = _require(doc, "lo", "scene.")
    _check_keys(lo_doc, {"amplitude_v_per_m", "ratio_to_signals",
                         "phase_deg", "angle_deg"}, "scene.lo.")
    signal_docs = doc.get("signals", [])
    if not isinstance(signal_docs, list):
        raise ConfigParseError("'scene.signals' must be a list")
    signals = []
    for i, sig in enumerate(signal_docs):
        sig_path = f"scene.signals[{i}]."
        _check_keys(sig, {"amplitude_v_per_m", "phase_deg", "angle_deg"},
                    sig_path)
        amp = _number(_require(sig, "amplitude_v_per_m", sig_path),
                      sig_path + "amplitude_v_per_m")
        signals.append(_parse_wave(sig, sig_path, amp))
    if "amplitude_v_per_m" in lo_doc and "ratio_to_signals" in lo_doc:
        raise ConfigParseError(
            "'scene.lo' must set exactly one of amplitude_v_per_m and "
            "ratio_to_signals")
    if "amplitude_v_per_m" in lo_doc:
        lo_amp = _number(lo_doc["amplitude_v_per_m"],
                         "scene.lo.amplitude_v_per_m")
    elif "ratio_to_signals" in lo_doc:
        total = sum(s.amplitude for s in signals)
        if total == 0:
            raise ConfigParseError(
                "'scene.lo.ratio_to_signals' needs at least one signal "
                "with nonzero amplitude")
        lo_amp = _number(lo_doc["ratio_to_signals"],
                         "scene.lo.ratio_to_signals") * total
    else:
        raise ConfigParseError(
            "missing required key 'scene.lo.amplitude_v_per_m' (or "
            "'scene.lo.ratio_to_signals')")
    lo = _parse_wave(lo_doc, "scene.lo.", lo_amp)
    return build_at("scene", RfScene, lo=lo, signals=tuple(signals),
                    carrier_freq=carrier)


_ATOM_KEYS = {
    "atom_density_per_m3": ("atom_density", 1.0),
    "probe_dipole_c_m": ("probe_dipole", 1.0),
    "rf_dipole_c_m": ("rf_dipole", 1.0),
    "decay_21_hz": ("decay_21", 2 * np.pi),
    "coupling_rabi_hz": ("coupling_rabi", 2 * np.pi),
    "coupling_detuning_hz": ("coupling_detuning", 2 * np.pi),
    "rf_detuning_hz": ("rf_detuning", 2 * np.pi),
    "probe_wavelength_m": ("probe_wavelength", 1.0),
}


def _parse_atoms(doc: dict) -> AtomicParams:
    _check_keys(doc, set(_ATOM_KEYS), "atoms.")
    overrides = {}
    for key, (fieldname, scale) in _ATOM_KEYS.items():
        if key in doc:
            overrides[fieldname] = scale * _number(doc[key], f"atoms.{key}")
    return build_at("atoms", AtomicParams, **overrides)


def _length(doc: dict, stem: str, rf_wavelength: float, path: str,
            default: float | None = None) -> float:
    key_m, key_wl = stem + "_m", stem + "_wavelengths"
    if key_m in doc and key_wl in doc:
        raise ConfigParseError(
            f"'{path}{stem}' must be given in exactly one unit")
    if key_m in doc:
        return _number(doc[key_m], path + key_m)
    if key_wl in doc:
        return _number(doc[key_wl], path + key_wl) * rf_wavelength
    if default is None:
        raise ConfigParseError(f"missing required key '{path}{key_m}' "
                               f"(or '{path}{key_wl}')")
    return default


def _parse_geometry(doc: dict, rf_wavelength: float) -> SensorGeometry:
    allowed = {"cell_length_m", "cell_length_wavelengths",
               "window_width_m", "window_width_wavelengths",
               "spacing_m", "spacing_wavelengths",
               "grid_points_per_rf_wavelength"}
    _check_keys(doc, allowed, "geometry.")
    cell = _length(doc, "cell_length", rf_wavelength, "geometry.")
    width = _length(doc, "window_width", rf_wavelength, "geometry.",
                    default=rf_wavelength / 4)
    spacing = _length(doc, "spacing", rf_wavelength, "geometry.",
                      default=rf_wavelength / 4)
    grid = _integer(doc.get("grid_points_per_rf_wavelength",
                            SensorGeometry.grid_points_per_rf_wavelength),
                    "geometry.grid_points_per_rf_wavelength")
    return build_at("geometry", SensorGeometry, cell, width, spacing, grid)


def _parse_prony(doc: dict, n_signals: int) -> PronyConfig:
    _check_keys(doc, {"model_order", "target_count",
                      "unit_circle_tolerance"}, "prony.")
    target = doc.get("target_count", n_signals or None)
    if target is None:
        raise ConfigParseError(
            "missing required key 'prony.target_count' (no scene signals "
            "to infer it from)")
    target = _integer(target, "prony.target_count")
    order = doc.get("model_order")
    order = max(2 * target, 2) if order is None else _integer(
        order, "prony.model_order")
    return build_at(
        "prony", PronyConfig, model_order=order, target_count=target,
        unit_circle_tolerance=_number(
            doc.get("unit_circle_tolerance",
                    PronyConfig.unit_circle_tolerance),
            "prony.unit_circle_tolerance"))


def _parse_sweep(doc: dict, scene: RfScene) -> SweepSpec:
    """Checks the values' types, the axis, the kind (null: the axis's
    default), each value's range, then that lo_ratio has signal to scale.
    Room for two windows is checked as the swept geometries are built."""
    _check_keys(doc, {"axis", "values", "kind"}, "sweep.")
    axis = _require(doc, "axis", "sweep.")
    values = _require(doc, "values", "sweep.")
    if not isinstance(values, list) or not values:
        raise ConfigParseError("'sweep.values' must be a nonempty list")
    values = tuple(_number(v, f"sweep.values[{i}]")
                   for i, v in enumerate(values))
    if not isinstance(axis, str) or axis not in SWEEP_KINDS:
        raise ConfigParseError(
            f"'sweep.axis' must be one of {', '.join(SWEEP_KINDS)}")
    kind = doc.get("kind")
    if kind is not None and kind not in SWEEP_KINDS[axis]:
        raise ConfigParseError(
            f"'sweep.kind' {kind!r} does not apply to axis {axis!r} "
            f"(allowed: {', '.join(SWEEP_KINDS[axis])})")
    for i, value in enumerate(values):
        if axis == "snr_db":
            build_at(f"sweep.values[{i}]", snr_ratio, value)
        elif not value > 0:
            raise ConfigParseError(f"'sweep.values[{i}]' must be positive")
    if axis == "lo_ratio" and scene.total_signal_amplitude == 0:
        raise ConfigParseError(
            "'sweep.axis' lo_ratio needs at least one signal with nonzero "
            "amplitude")
    return SweepSpec(axis=axis, values=values, kind=kind)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigParseError("top-level config must be an object")
    _check_keys(doc, {"scene", "atoms", "geometry", "prony", "noise",
                      "run", "sweep"}, "")
    scene = _parse_scene(_require(doc, "scene", ""))
    params = _parse_atoms(doc.get("atoms", {}))
    geometry = _parse_geometry(_require(doc, "geometry", ""),
                               scene.rf_wavelength)
    prony = _parse_prony(doc.get("prony", {}), scene.n_signals)

    noise_doc = doc.get("noise", {})
    _check_keys(noise_doc, {"snr_db"}, "noise.")
    snr_db = noise_doc.get("snr_db")
    if snr_db is not None:
        snr_db = _number(snr_db, "noise.snr_db")
        build_at("noise.snr_db", snr_ratio, snr_db)

    run_doc = doc.get("run", {})
    _check_keys(run_doc, {"trials", "base_seed", "output_dir", "verbosity"},
                "run.")
    trials = _integer(run_doc.get("trials", ScenarioConfig.trials),
                      "run.trials")
    if trials < 1:
        raise ConfigParseError("'run.trials' must be at least 1")
    if trials >= CELL_SEED_STRIDE:
        raise ConfigParseError(
            f"'run.trials' must be below {CELL_SEED_STRIDE}: the noise "
            "seeds of neighbouring sweep cells would overlap")
    base_seed = _integer(run_doc.get("base_seed", ScenarioConfig.base_seed),
                         "run.base_seed")
    if base_seed < 0:
        raise ConfigParseError("'run.base_seed' must be nonnegative")
    verbosity = _integer(run_doc.get("verbosity", 1), "run.verbosity")
    output_dir = run_doc.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigParseError("'run.output_dir' must be a nonempty string")

    sweep = _parse_sweep(doc["sweep"], scene) if "sweep" in doc else None
    scenario = ScenarioConfig(
        scene=scene, geometry=geometry, prony=prony, params=params,
        snr_db=snr_db, trials=trials, base_seed=base_seed, sweep=sweep)
    return RunConfig(scenario=scenario, output_dir=output_dir,
                     verbosity=verbosity, echo=doc)


# Each CLI flag (by argparse dest) and the (section, key) it sets.
FLAG_KEYS = {"out": ("run", "output_dir"), "seed": ("run", "base_seed"),
             "order": ("prony", "model_order")}


def load_config(path: str | Path, flags: dict | None = None) -> RunConfig:
    """Parse the config at path with each FLAG_KEYS flag in flags that is
    not None set under its key first: echo is the document that ran."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    for flag, (section, key) in FLAG_KEYS.items():
        value = (flags or {}).get(flag)
        if value is not None and isinstance(doc, dict) and isinstance(
                doc.setdefault(section, {}), dict):
            doc[section][key] = value
    return parse_config(doc)
