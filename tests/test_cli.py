import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rydberg_doa import cli, experiments, sensing, serialize
from rydberg_doa.config import (
    _ATOM_KEYS,
    FLAG_KEYS,
    load_config,
    parse_config,
)
from rydberg_doa.errors import ConfigParseError, SchemaError
from rydberg_doa.estimation import PronyConfig, estimate_doa
from rydberg_doa.physics import AtomicParams

from oracles import length_cell_std


# An edit that drops its key from a config document.
DELETE = object()


def edit_doc(doc, edits):
    """doc with each edit applied in place: a dotted path (list indexes
    as digits) and its new value, or DELETE to drop the key."""
    for path, value in edits.items():
        *parents, key = [int(p) if p.isdigit() else p
                         for p in path.split(".")]
        node = doc
        for parent in parents:
            node = node[parent]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(out_dir, **extra):
    doc = {
        "scene": {
            "carrier_freq_hz": 2.03e9,
            "lo": {"ratio_to_signals": 20, "phase_deg": 0, "angle_deg": 90},
            "signals": [
                {"amplitude_v_per_m": 1e-6, "phase_deg": 0,
                 "angle_deg": -30},
                {"amplitude_v_per_m": 1e-6, "phase_deg": 180,
                 "angle_deg": 45},
            ],
        },
        "geometry": {"cell_length_wavelengths": 4},
        "prony": {"model_order": 4, "target_count": 2},
        "noise": {"snr_db": None},
        "run": {"trials": 5, "base_seed": 0, "output_dir": str(out_dir)},
    }
    doc.update(extra)
    return doc


# The geometry keys, as an unknown-key error lists them.
GEOMETRY_KEYS = ("(allowed: cell_length_wavelengths, "
                 "grid_points_per_rf_wavelength, spacing_wavelengths, "
                 "window_width_wavelengths)")


class TestConfigErrors:
    def test_missing_required_key_exit_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        del doc["scene"]["carrier_freq_hz"]
        code = cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)])
        assert code == 2
        assert "carrier_freq_hz" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["geometry"]["cell_len_m"] = 1.0
        code = cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)])
        assert code == 2
        assert "cell_len_m" in capsys.readouterr().err

    def test_probe_detuning_is_an_unknown_key(self, tmp_path, capsys):
        # The resonant-probe model has no probe detuning to set.
        doc = base_doc(tmp_path / "out", atoms={"probe_detuning_hz": 1e6})
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown key 'atoms.probe_detuning_hz' (allowed: ")
        assert not (tmp_path / "out").exists()

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["simulate", "--config",
                         str(tmp_path / "nope.json")]) == 2

    def test_negative_base_seed_exit_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["run"]["base_seed"] = -5
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert "run.base_seed" in capsys.readouterr().err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, base_doc(tmp_path / "out")),
                         "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: 'run.base_seed' must be nonnegative\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("[]", "top-level config must be an object"),
        (json.dumps({**base_doc("out"), "run": 5}),
         "'run' must be an object"),
    ])
    def test_flag_on_a_malformed_document_exit_2(self, tmp_path, capsys,
                                                  text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["simulate", "--config", str(path), "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_zero_order_flag_exit_2(self, tmp_path, capsys):
        # prony.model_order is set in the config alone; 0 is refused
        # before anything runs.
        doc = base_doc(tmp_path / "out")
        doc["prony"]["model_order"] = 0
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "error: 'prony': model_order must be at least 1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("order_selection", "singular_value_threshold"),
        ("sv_threshold", 1e-3)])
    def test_removed_order_selection_keys_are_unknown(self, tmp_path,
                                                      capsys, key, value):
        doc = base_doc(tmp_path / "out")
        doc["prony"][key] = value
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: unknown key 'prony.{key}' (allowed: ")
        assert not (tmp_path / "out").exists()

    def test_removed_format_key_is_unknown(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["run"]["format"] = "csv"
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown key 'run.format' (allowed: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("run", "absorption_model", "exact"),
        ("geometry", "first_center_m", 0.01),
        ("geometry", "channel_count", 16)])
    def test_removed_readout_keys_are_unknown(self, tmp_path, capsys,
                                              section, key, value):
        # simulate images the exact absorption, and the windows are packed
        # flush from x = 0, so none of these keys selects anything.
        doc = base_doc(tmp_path / "out")
        doc[section][key] = value
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: unknown key '{section}.{key}' (allowed: ")
        assert not (tmp_path / "out").exists()

    def test_ambiguous_units_exit_2(self, tmp_path, capsys):
        # A length spelled in meters beside its wavelength spelling is
        # rejected: geometry lengths have one unit, RF wavelengths.
        doc = base_doc(tmp_path / "out")
        doc["geometry"]["cell_length_m"] = 0.5
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown key 'geometry.cell_length_m' {GEOMETRY_KEYS}\n")
        assert not (tmp_path / "out").exists()

    def test_trials_overlapping_cell_seeds_exit_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["run"]["trials"] = experiments.CELL_SEED_STRIDE
        assert cli.main(["check-sampling", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert "run.trials" in capsys.readouterr().err
        doc["run"]["trials"] = experiments.CELL_SEED_STRIDE - 1
        assert cli.main(["check-sampling", "--config",
                         write_config(tmp_path, doc)]) == 0

    @pytest.mark.parametrize("sweep, named", [
        ({"axis": "frequency", "values": [1]}, "'sweep.axis'"),
        ({"axis": ["lo_ratio"], "values": [1]}, "'sweep.axis'"),
        ({"axis": "lo_ratio", "values": [1], "kind": "histogram"},
         "'sweep.kind'"),
        ({"axis": "snr_db", "values": [10], "kind": "crlb_length"},
         "'sweep.kind' 'crlb_length' does not apply to axis 'snr_db'"),
    ])
    def test_bad_sweep_axis_or_kind_exit_2(self, tmp_path, capsys, sweep,
                                           named):
        out = tmp_path / "out"
        doc = base_doc(out, sweep=sweep)
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, index", [
        ("lo_ratio", [0, 1], 0),
        ("lo_ratio", [-2, 1], 0),
        ("cell_length", [0, 1], 0),
        ("sampling_interval", [0, 0.25], 0),
        ("window_width", [40, 0.25], 0),
        ("cell_length", [1, 0.1], 1),
        ("snr_db", [10, 4000], 1),
        ("snr_db", [-4000, 10], 0),
    ])
    def test_out_of_range_sweep_value_exit_2(self, tmp_path, capsys, axis,
                                             values, index):
        out = tmp_path / "out"
        doc = json.loads((REPO_CONFIGS / "fig3c.json").read_text())
        doc["sweep"] = {"axis": axis, "values": values}
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"sweep.values[{index}]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "crlb", "sweep",
                                         "check-sampling"])
    def test_empty_out_flag_exit_2(self, tmp_path, capsys, monkeypatch,
                                   command):
        monkeypatch.chdir(tmp_path)
        doc = base_doc(tmp_path / "out",
                       sweep={"axis": "cell_length", "values": [1]})
        doc["noise"]["snr_db"] = 30
        cfg = write_config(tmp_path, doc)
        assert cli.main([command, "--config", cfg, "--out", ""]) == 2
        assert capsys.readouterr().err == (
            "error: 'run.output_dir' must be a nonempty string\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("snr_db", [4000, -4000])
    @pytest.mark.parametrize("command", ["simulate", "crlb"])
    def test_snr_beyond_float_range_exit_2(self, tmp_path, capsys, command,
                                           snr_db):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["noise"]["snr_db"] = snr_db
        assert cli.main([command, "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"error: 'noise.snr_db': {snr_db} dB has no finite positive "
            "linear power ratio\n")
        assert not out.exists()

    def test_sweep_without_a_sweep_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config",
                         str(REPO_CONFIGS / "default.json"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: missing required key 'sweep'\n")
        assert not out.exists()

    def test_length_sweep_requires_snr(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = json.loads((REPO_CONFIGS / "fig6.json").read_text())
        doc["noise"]["snr_db"] = None
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: missing required key 'noise.snr_db' (the "
                       "bound needs a noise level)\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["rmse", "linearization_check"])
    def test_lo_ratio_sweep_without_signal_power_exit_2(self, tmp_path,
                                                        capsys, kind):
        out = tmp_path / "out"
        doc = json.loads((REPO_CONFIGS / "fig3c.json").read_text())
        doc["scene"]["lo"] = {"amplitude_v_per_m": 2e-5, "phase_deg": 0,
                              "angle_deg": 90}
        for signal in doc["scene"]["signals"]:
            signal["amplitude_v_per_m"] = 0
        doc["sweep"]["kind"] = kind
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: 'sweep.axis' lo_ratio needs at least one signal with "
            "nonzero amplitude\n")
        assert not out.exists()

    @pytest.mark.parametrize("edits, code, err", [
        ({"scene.signals.0.angle_deg": "x"}, 2,
         "'scene.signals[0].angle_deg' must be a number"),
        ({"scene.signals.0.angle_deg": float("inf")}, 2,
         "'scene.signals[0].angle_deg' must be finite"),
        ({"scene.signals.0.angle_deg": 95}, 2,
         "'scene.signals[0]': angle must lie in [-pi/2, pi/2]"),
        ({"scene.signals.0.amplitude_v_per_m": -1e-6}, 2,
         "'scene.signals[0]': amplitude must be nonnegative"),
        ({"scene.lo.angle_deg": 120}, 2,
         "'scene.lo': angle must lie in [-pi/2, pi/2]"),
        ({"scene.signals": {"amplitude_v_per_m": 1e-6, "angle_deg": 0}}, 2,
         "'scene.signals' must be a list"),
        ({"scene.lo.amplitude_v_per_m": 2e-5}, 2,
         "'scene.lo' must set exactly one of amplitude_v_per_m and "
         "ratio_to_signals"),
        ({"scene.signals.0.amplitude_v_per_m": 0,
          "scene.signals.1.amplitude_v_per_m": 0}, 2,
         "'scene.lo.ratio_to_signals' needs at least one signal with "
         "nonzero amplitude"),
        ({"scene.lo.ratio_to_signals": DELETE}, 2,
         "missing required key 'scene.lo.amplitude_v_per_m' (or "
         "'scene.lo.ratio_to_signals')"),
        ({"scene.lo.ratio_to_signals": DELETE,
          "scene.lo.amplitude_v_per_m": 0}, 2,
         "'scene': LO amplitude must be strictly positive"),
        ({"scene.carrier_freq_hz": 0}, 2,
         "'scene': carrier_freq must be strictly positive"),
        ({"atoms": {"coupling_detuning_hz": 1e6, "rf_detuning_hz": -1e6}}, 2,
         "'atoms': coupling_detuning + rf_detuning must be nonzero"),
        ({"atoms": {"atom_density_per_m3": -1}}, 2,
         "'atoms': atom_density must be strictly positive"),
        pytest.param(
            {"geometry.cell_length_m": 0.5}, 2,
            f"unknown key 'geometry.cell_length_m' {GEOMETRY_KEYS}",
            id="edits13-2-'geometry.cell_length' must be given in RF "
               "wavelengths"),
        ({"geometry.cell_length_wavelengths": DELETE}, 2,
         "missing required key 'geometry.cell_length_wavelengths'"),
        ({"geometry": {"cell_length_wavelengths": 0.3}}, 2,
         "'geometry': need at least two channels"),
        ({"geometry.grid_points_per_rf_wavelength": 1}, 2,
         "'geometry': grid density must be at least 2 points"),
        ({"scene.lo": {"amplitude_v_per_m": 2e-5, "angle_deg": 90},
          "scene.signals": [], "prony.target_count": DELETE}, 2,
         "missing required key 'prony.target_count' (no scene signals to "
         "infer it from)"),
        ({"prony.unit_circle_tolerance": 0.2}, 2,
         "unknown key 'prony.unit_circle_tolerance' (allowed: model_order, "
         "target_count)"),
        ({"prony.target_count": 0}, 2,
         "'prony': target_count must be at least 1"),
        ({"sweep.values": []}, 2, "'sweep.values' must be a nonempty list"),
        ({"sweep.values": True}, 2, "'sweep.values' must be a nonempty list"),
        ({"sweep.axis": ["lo_ratio"]}, 2,
         "'sweep.axis' must be one of lo_ratio, snr_db, cell_length, "
         "sampling_interval, window_width"),
        ({"sweep.axis": "frequency", "sweep.values": []}, 2,
         "'sweep.values' must be a nonempty list"),
        ({"sweep.kind": 5}, 2,
         "'sweep.kind' 5 does not apply to axis 'lo_ratio' (allowed: rmse, "
         "linearization_check)"),
        ({"sweep.kind": "crlb_length"}, 2,
         "'sweep.kind' 'crlb_length' does not apply to axis 'lo_ratio' "
         "(allowed: rmse, linearization_check)"),
        ({"sweep.values": [-1, 2]}, 2, "'sweep.values[0]' must be positive"),
        ({"sweep": {"axis": "snr_db", "values": [10, 4000]}}, 2,
         "'sweep.values[1]': 4000 dB has no finite positive linear power "
         "ratio"),
        ({"sweep": {"axis": "cell_length", "values": [0.3]}}, 2,
         "'sweep.values[0]': need at least two channels"),
        ({"run.trials": 0}, 2, "'run.trials' must be at least 1"),
        ({"run.trials": -3}, 2, "'run.trials' must be at least 1"),
        ({"run.trials": 1_000_000}, 2,
         "'run.trials' must be below 1000000: the noise seeds of "
         "neighbouring sweep cells would overlap"),
        ({"noise.snr_db": 4000}, 2,
         "'noise.snr_db': 4000 dB has no finite positive linear power "
         "ratio"),
        ({"sweep.kind": None}, 0, None),
        ({"prony": {"model_order": 2, "target_count": 2}}, 2,
         "'prony': model_order must be at least 2*target_count"),
        ({"geometry.spacing_wavelengths": 0}, 2,
         "'geometry': lengths and spacing must be strictly positive"),
        ({"geometry.cell_length_wavelengths": -1}, 2,
         "'geometry': lengths and spacing must be strictly positive"),
        ({"geometry.window_width_m": 0.037}, 2,
         f"unknown key 'geometry.window_width_m' {GEOMETRY_KEYS}"),
        ({"geometry.spacing_m": 0.037}, 2,
         f"unknown key 'geometry.spacing_m' {GEOMETRY_KEYS}"),
    ])
    def test_config_error_message(self, tmp_path, capsys, edits, code, err):
        # Each edit of configs/fig3c.json (see edit_doc) gives this exit
        # code and this one stderr line.
        doc = edit_doc(json.loads((REPO_CONFIGS / "fig3c.json").read_text()),
                       edits)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == code
        assert capsys.readouterr().err == ("" if err is None
                                           else f"error: {err}\n")
        assert out.exists() == (code == 0)


class TestSimulate:
    def test_creates_outputs(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "nested"
        code = cli.main(["simulate", "--config",
                         write_config(tmp_path, base_doc(out))])
        assert code == 0
        assert (out / "fluorescence.csv").exists()
        assert (out / "measurement.csv").exists()
        assert "sampling compliance" in capsys.readouterr().out

    def test_roundtrip_estimate_recovers_angles(self, tmp_path, capsys):
        # estimate reads the written readout to the library's bearings,
        # bit for bit.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert cli.main(["estimate", str(out / "measurement.csv"),
                         "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "estimation.json").read_text())
        sc = load_config(cfg).scenario
        measurement = sensing.simulate_measurements(sc.scene, sc.geometry,
                                                    sc.params)
        want = estimate_doa(measurement, (sc.scene.wavenumber,
                                          sc.scene.lo.angle), sc.prony)
        assert result["doas_rad"] == want.doas.tolist()

    @pytest.mark.parametrize("model", ["exact"])
    def test_measurement_is_the_library_readout(self, tmp_path, model):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli.main(["simulate", "--config", cfg]) == 0
        sc = load_config(cfg).scenario
        want = sensing.simulate_measurements(sc.scene, sc.geometry,
                                             sc.params)
        _, got = serialize.read_measurement_csv(out / "measurement.csv")
        np.testing.assert_array_equal(got, want.values)

    def test_noise_seed_flag_changes_output(self, tmp_path):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["noise"]["snr_db"] = 30
        cfg = write_config(tmp_path, doc)
        cli.main(["simulate", "--config", cfg, "--seed", "1"])
        first = (out / "measurement.csv").read_bytes()
        cli.main(["simulate", "--config", cfg, "--seed", "1"])
        assert (out / "measurement.csv").read_bytes() == first
        cli.main(["simulate", "--config", cfg, "--seed", "2"])
        assert (out / "measurement.csv").read_bytes() != first

    def test_json_format_flag(self, tmp_path):
        # measurement.csv is the only measurement file estimate reads, so
        # simulate has no --format flag
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", cfg, "--format", "json"])
        assert exc.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "crlb"])
@pytest.mark.parametrize("amplitudes", [(), (0, 0)], ids=["none", "zero"])
def test_snr_without_signal_amplitude_exit_3(tmp_path, capsys, command,
                                             amplitudes):
    # The exact readout of such a scene is rounding residue (about 1e-17),
    # so noise referenced to its power would be referenced to nothing.
    out = tmp_path / "out"
    doc = base_doc(out)
    doc["scene"]["lo"] = {"amplitude_v_per_m": 2e-5, "angle_deg": 90}
    doc["scene"]["signals"] = [{"amplitude_v_per_m": a, "angle_deg": angle}
                               for a, angle in zip(amplitudes, (-30, 45))]
    doc["noise"]["snr_db"] = 30
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 3
    assert capsys.readouterr().err == (
        "error: no target has a nonzero amplitude_v_per_m: the SNR has no "
        "signal to reference\n")
    assert not out.exists()


OVERFLOW = "a result overflowed the float range"
NOT_FINITE = "measurement values must be finite"


@pytest.mark.parametrize("name, edits, commands, code, err", [
    ("fig3c", {"sweep": DELETE, "atoms": {"probe_wavelength_m": 1e-300}},
     ["simulate"], 3, NOT_FINITE),
    ("fig3c", {"sweep": DELETE, "atoms": {"probe_wavelength_m": 1e-300}},
     ["crlb"], 3, "noise variance must be positive and finite"),
    ("fig3c", {"sweep": DELETE, "atoms": {"atom_density_per_m3": 1e300}},
     ["simulate", "crlb"], 3, OVERFLOW),
    ("fig3c", {"atoms": {"probe_wavelength_m": 1e-300}}, ["sweep"], 3,
     NOT_FINITE),
    ("fig3c", {"atoms": {"atom_density_per_m3": 1e300}}, ["sweep"], 3,
     OVERFLOW),
    ("fig3c", {"sweep": DELETE, "scene.lo": {"amplitude_v_per_m": 1e200,
                                             "angle_deg": 90}},
     ["simulate", "crlb"], 3, OVERFLOW),
    ("fig3c", {"sweep": DELETE, "scene.lo.ratio_to_signals": 1e300},
     ["simulate", "crlb"], 3, OVERFLOW),
    ("fig3c", {"scene.signals.0.amplitude_v_per_m": 1e200},
     ["sweep", "crlb", "simulate"], 3, OVERFLOW),
    ("fig3c", {"sweep": DELETE, "scene.lo": {"amplitude_v_per_m": 1e-5,
                                             "angle_deg": 90},
               "scene.signals.0.amplitude_v_per_m": 1e200},
     ["simulate"], 3, OVERFLOW),
    ("fig3c", {"sweep": DELETE, "scene.lo": {"amplitude_v_per_m": 1e-5,
                                             "angle_deg": 90},
               "scene.signals.0.amplitude_v_per_m": 1e308,
               "scene.signals.1.amplitude_v_per_m": 1e308},
     ["simulate"], 3, OVERFLOW),
    *[("fig3c", {"sweep": DELETE, "atoms": {key: 1e200}},
       ["simulate", "crlb"], 3, OVERFLOW)
      for key in ("probe_dipole_c_m", "rf_dipole_c_m", "coupling_rabi_hz",
                  "decay_21_hz")],
    ("fig3c", {"sweep.values": [1e300]}, ["sweep"], 3, OVERFLOW),
    ("fig3c", {"sweep.values": [5e-324]}, ["sweep"], 2,
     "'sweep.values[0]': LO amplitude must be strictly positive"),
    ("fig2", {"sweep.values": [5e-324]}, ["sweep"], 2,
     "'sweep.values[0]': LO amplitude must be strictly positive"),
    ("fig3c", {"sweep": DELETE, "scene.lo": {"amplitude_v_per_m": 1e-5,
                                             "angle_deg": 90},
               "scene.signals.0.amplitude_v_per_m": 1e308,
               "scene.signals.1.amplitude_v_per_m": 1e308},
     ["crlb"], 3, "noise variance must be positive and finite"),
    ("fig2", {"atoms": {"probe_wavelength_m": 1e-300}}, ["sweep"], 3,
     "exact absorption values must be finite"),
    ("fig2", {"atoms": {"atom_density_per_m3": 1e300}}, ["sweep"], 3,
     OVERFLOW),
], ids=["probe-wavelength", "probe-wavelength-crlb", "density",
        "probe-wavelength-sweep", "density-sweep", "lo-amplitude", "lo-ratio",
        "signal-amplitude", "small-lo", "signal-sum", "probe-dipole",
        "rf-dipole", "coupling-rabi", "decay", "swept-lo-ratio-overflow",
        "swept-lo-ratio-underflow", "fig2-swept-lo-ratio-underflow",
        "signal-sum-crlb", "fig2-probe-wavelength", "fig2-density"])
def test_out_of_range_config_exits_with_one_error_line(
        tmp_path, capsys, name, edits, commands, code, err):
    # Configs that parse but whose numbers leave the float range: each
    # command exits 2 or 3 with one error line and writes no file, so no
    # NaN or inf reaches an output.
    doc = edit_doc(json.loads((REPO_CONFIGS / f"{name}.json").read_text()),
                   edits)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    for command in commands:
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err == f"error: {err}\n", command
        assert not out.exists()


class TestEstimate:
    @pytest.mark.parametrize("verbosity", [0, 1])
    def test_verbosity_sets_the_doas_line(self, tmp_path, capsys,
                                          verbosity):
        # run.verbosity 0 prints only the path written; 1, the default,
        # also prints the DoAs.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["run"]["verbosity"] = verbosity
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert cli.main(["estimate", str(out / "measurement.csv"),
                         "--config", cfg]) == 0
        doas = json.loads((out / "estimation.json").read_text())["doas_rad"]
        lines = [f"wrote {out / 'estimation.json'}"]
        if verbosity:
            lines.insert(0, "estimated DoAs (deg): " + ", ".join(
                f"{np.rad2deg(v):.4f}" for v in doas))
        assert capsys.readouterr().out == "".join(f"{line}\n"
                                                  for line in lines)

    def test_malformed_csv_names_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        bad = tmp_path / "bad.csv"
        bad.write_text("j,x_j_m,y_tilde\n1,0.01,0.5\n2,oops,0.4\n")
        code = cli.main(["estimate", str(bad), "--config", cfg])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, err", [
        ("", "empty file"),
        ("j,x,y\n1,0.01,0.5\n2,0.02,0.4\n",
         "expected header j,x_j_m,y_tilde"),
        ("j,x_j_m,y_tilde\n1,0.01\n2,0.02,0.4\n",
         "row 2 has 2 fields, expected 3"),
        ("j,x_j_m,y_tilde\n1,0.01,0.5\n", "need at least two channels"),
    ], ids=["empty", "header", "short-row", "one-channel"])
    def test_malformed_csv_exit_2(self, tmp_path, capsys, text, err):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert cli.main(["estimate", str(bad), "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("row", ["2,0.02,nan", "2,0.02,inf",
                                     "2,-inf,0.4", "2,NaN,-Infinity"])
    def test_non_finite_field_names_row(self, tmp_path, capsys, row):
        cfg = write_config(tmp_path, base_doc(tmp_path / "out"))
        bad = tmp_path / "bad.csv"
        bad.write_text(f"j,x_j_m,y_tilde\n1,0.01,0.5\n{row}\n3,0.03,0.1\n")
        code = cli.main(["estimate", str(bad), "--config", cfg])
        assert code == 2
        field = next(f for f in row.split(",")[1:]
                     if not np.isfinite(float(f)))
        assert (f"row 3: could not convert string to finite float: "
                f"'{field}'") in capsys.readouterr().err

    @pytest.mark.parametrize("first", [0.0, -0.05])
    def test_first_center_at_or_below_zero(self, tmp_path, first):
        # Prony reads only the pitch and K: shifting every center leaves
        # the estimate unchanged, up to the rounding of the shifted pitch.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["noise"]["snr_db"] = 30
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg]) == 0
        csv_path = out / "measurement.csv"
        assert cli.main(["estimate", str(csv_path), "--config", cfg]) == 0
        want = json.loads((out / "estimation.json").read_text())
        header, *rows = csv_path.read_text().splitlines()
        x0 = float(rows[0].split(",")[1])
        shifted = [header]
        for row in rows:
            j, x, y = row.split(",")
            shifted.append(f"{j},{float(x) - x0 + first!r},{y}")
        moved = tmp_path / "shifted.csv"
        moved.write_text("\n".join(shifted) + "\n")
        assert cli.main(["estimate", str(moved), "--config", cfg,
                         "--out", str(tmp_path / "moved")]) == 0
        got = json.loads((tmp_path / "moved" / "estimation.json").read_text())
        np.testing.assert_allclose(got["doas_rad"], want["doas_rad"],
                                   rtol=1e-12)

    def test_overflowing_coefficients_exit_3(self, tmp_path):
        # The overflowing rows are classified failures: stderr holds the
        # error line alone, with no numpy RuntimeWarning before it.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli.main(["simulate", "--config", cfg]) == 0
        lines = (out / "measurement.csv").read_text().splitlines()
        for i in range(1, len(lines), 2):
            j, x, _ = lines[i].split(",")
            lines[i] = f"{j},{x},1e308"
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "rydberg_doa.cli", "estimate", str(big),
             "--config", cfg, "--out", str(tmp_path / "est")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 3
        assert done.stderr == \
            "error: prediction coefficients are not finite\n"
        assert not (tmp_path / "est" / "estimation.json").exists()

    @staticmethod
    def lo_bearing_config(tmp_path):
        # Zero beat frequency: the target's pair sits inside the DC guard.
        doc = base_doc(tmp_path / "out",
                       prony={"model_order": 2, "target_count": 1})
        doc["scene"]["signals"] = [{"amplitude_v_per_m": 1e-6,
                                    "phase_deg": 0, "angle_deg": 90}]
        return write_config(tmp_path, doc)

    @staticmethod
    def assert_lo_bearing_exit_3(tmp_path, capsys, cfg, measured):
        assert cli.main(["estimate", str(measured), "--config", cfg,
                         "--out", str(tmp_path / "est")]) == 3
        assert capsys.readouterr().err == \
            "error: found 0 usable root pairs, need 1\n"
        assert not (tmp_path / "est" / "estimation.json").exists()

    def test_target_at_lo_bearing_exit_3(self, tmp_path, capsys):
        cfg = self.lo_bearing_config(tmp_path)
        sc = load_config(cfg).scenario
        measured = tmp_path / "measurement.csv"
        serialize.write_measurement_csv(sensing.predicted_measurements(
            sc.scene, sc.geometry, sc.params), measured)
        self.assert_lo_bearing_exit_3(tmp_path, capsys, cfg, measured)

    def test_simulated_target_at_lo_bearing_exit_3(self, tmp_path, capsys):
        # the fluorescence readout of the same scene: no bearing either
        cfg = self.lo_bearing_config(tmp_path)
        assert cli.main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        self.assert_lo_bearing_exit_3(tmp_path, capsys, cfg,
                                      tmp_path / "out" / "measurement.csv")

    def test_frequency_past_the_visible_region_is_clamped(self, tmp_path,
                                                           capsys):
        # With the LO at broadside, a beat of 1.5 k lies past every
        # bearing: the estimate is clamped to end-fire and says so.
        doc = base_doc(tmp_path / "out",
                       prony={"model_order": 2, "target_count": 1})
        doc["scene"]["lo"]["angle_deg"] = 0
        doc["scene"]["signals"] = [{"amplitude_v_per_m": 1e-6,
                                    "phase_deg": 0, "angle_deg": -30}]
        cfg = write_config(tmp_path, doc)
        scene = load_config(cfg).scenario.scene
        lam, k = scene.rf_wavelength, scene.wavenumber
        centers = lam / 8 + np.arange(16) * lam / 4
        values = np.cos(1.5 * k * centers + 0.3)
        measured = tmp_path / "measurement.csv"
        measured.write_text("j,x_j_m,y_tilde\n" + "".join(
            f"{j},{x!r},{y!r}\n" for j, (x, y) in enumerate(
                zip(centers.tolist(), values.tolist()), start=1)))
        capsys.readouterr()
        assert cli.main(["estimate", str(measured), "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        i = lines.index("estimated DoAs (deg): -90.0000")
        assert lines[i + 1] == ("warning: some frequencies mapped outside "
                                "the visible region and were clamped")
        result = json.loads(
            (tmp_path / "out" / "estimation.json").read_text())
        assert result["clamped_flags"] == [True]

    def test_order_flag_overrides(self, tmp_path):
        # The config's prony.model_order, not the 2N default of 4, is the
        # order the estimate fits.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["prony"]["model_order"] = 6
        cfg = write_config(tmp_path, doc)
        cli.main(["simulate", "--config", cfg])
        assert cli.main(["estimate", str(out / "measurement.csv"),
                         "--config", cfg]) == 0
        result = json.loads((out / "estimation.json").read_text())
        assert len(result["lpc_coefficients"]) == 6

    def test_order_above_channel_count_exit_3(self, tmp_path, capsys):
        # The config parses whatever the channel count; the estimate on
        # K = 16 channels refuses p = 20.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["prony"]["model_order"] = 20
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert cli.main(["estimate", str(out / "measurement.csv"),
                         "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: need K > p >= 1, got K=16, p=20\n")
        assert not (out / "estimation.json").exists()

    def test_read_measurement_roundtrip(self, tmp_path, geometry):
        from rydberg_doa.sensing import MeasurementVector
        values = np.sin(0.7 * np.arange(geometry.channel_count))
        mv = MeasurementVector(values=values, geometry=geometry)
        path = tmp_path / "mv.csv"
        serialize.write_measurement_csv(mv, path)
        centers, read_values = serialize.read_measurement_csv(path)
        np.testing.assert_allclose(centers, geometry.centers, rtol=1e-15)
        np.testing.assert_allclose(read_values, values, rtol=1e-15)

    def test_blank_line_between_rows_is_skipped(self, tmp_path, geometry):
        mv = sensing.MeasurementVector(
            values=np.sin(0.7 * np.arange(geometry.channel_count)),
            geometry=geometry)
        path = tmp_path / "mv.csv"
        serialize.write_measurement_csv(mv, path)
        header, first, *rest = path.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([header, first, "", *rest]) + "\n")
        for got, want in zip(serialize.read_measurement_csv(spaced),
                             serialize.read_measurement_csv(path)):
            np.testing.assert_array_equal(got, want)

    def test_nonuniform_centers_rejected(self):
        with pytest.raises(SchemaError):
            serialize.geometry_from_centers(np.array([0.0, 0.1, 0.3]))


class TestCrlbCommand:
    def test_single_target_cross_check(self, tmp_path, capsys):
        # One bound line per target, then both files, which carry the same
        # bound; test_crlb holds the single-target closed form.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["scene"]["signals"] = [
            {"amplitude_v_per_m": 1e-6, "phase_deg": 0, "angle_deg": 15}]
        doc["prony"] = {"model_order": 2, "target_count": 1}
        doc["noise"]["snr_db"] = 40
        cfg = write_config(tmp_path, doc)
        assert cli.main(["crlb", "--config", cfg]) == 0
        sc = load_config(cfg).scenario
        std_deg = np.rad2deg(experiments.crlb_std_for(
            sc.scene, sc.geometry, sc.params, snr_db=40.0))
        assert capsys.readouterr().out == (
            f"theta   15.000 deg: bound std {std_deg[0]:.6g} deg\n"
            f"wrote {out / 'crlb.json'} and {out / 'crlb.csv'}\n")
        assert json.loads((out / "crlb.json").read_text())[
            "per_target_std_deg"] == [std_deg[0]]
        rows = (out / "crlb.csv").read_text().splitlines()
        assert rows[0] == "target,theta_deg,crlb_std_deg"
        assert len(rows) == 2
        assert float(rows[1].split(",")[2]) == std_deg[0]

    def test_requires_snr(self, tmp_path):
        doc = base_doc(tmp_path / "out")
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 2

    def test_end_fire_exit_3(self, tmp_path):
        doc = base_doc(tmp_path / "out")
        doc["scene"]["signals"] = [
            {"amplitude_v_per_m": 1e-6, "phase_deg": 0, "angle_deg": 90}]
        doc["prony"] = {"model_order": 2, "target_count": 1}
        doc["noise"]["snr_db"] = 30
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 3

    @pytest.mark.parametrize("phases", [(0, 90), (0, 180)])
    def test_same_bearing_exit_3(self, tmp_path, capsys, phases):
        # The FIM is singular to rounding here, so any bound printed would
        # be noise (about 0.1 deg for phases 0/90, 1e-10 deg for 0/180).
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["scene"]["signals"] = [
            {"amplitude_v_per_m": 1e-6, "phase_deg": ph, "angle_deg": -30}
            for ph in phases]
        doc["noise"]["snr_db"] = 30
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bound is undefined" in err
        assert not out.exists()

    def test_zero_amplitude_signal_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["scene"]["signals"][1]["amplitude_v_per_m"] = 0
        doc["noise"]["snr_db"] = 30
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err == "error: zero-amplitude targets make the FIM singular\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", [2900.0, -3100.0, -3200.0])
    def test_non_finite_information_exit_3(self, tmp_path, capsys, snr_db):
        # Each SNR has a finite linear ratio, so the config accepts it, but
        # the FIM (2900 dB), the bound (-3100 dB) or the Schur complement
        # (-3200 dB) leaves the float range.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["noise"]["snr_db"] = snr_db
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Fisher information or its bound is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("angle_deg", [10, -80])
    def test_fewer_channels_than_unknowns_exit_3(self, tmp_path, capsys,
                                                 angle_deg):
        # A 0.6-wavelength cell holds two quarter-wave windows, fewer than
        # the target's three unknowns: the FIM is singular, so no bound.
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["scene"]["signals"] = [{"amplitude_v_per_m": 1e-6,
                                    "phase_deg": 0, "angle_deg": angle_deg}]
        doc["prony"] = {"model_order": 2, "target_count": 1}
        doc["geometry"]["cell_length_wavelengths"] = 0.6
        doc["noise"]["snr_db"] = 30
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == (
            "error: the bound needs a channel per parameter: K = 2 "
            "channels for 3 parameters\n")
        assert not out.exists()

    def test_two_target_fim_dimensions(self, tmp_path):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["noise"]["snr_db"] = 30
        assert cli.main(["crlb", "--config",
                         write_config(tmp_path, doc)]) == 0
        report = json.loads((out / "crlb.json").read_text())
        assert report["fim"]["rows"] == 6
        assert report["fim"]["cols"] == 6


class TestSweepCommand:
    def sweep_doc(self, out, axis, values, **kwargs):
        doc = base_doc(out)
        doc["noise"]["snr_db"] = 30
        doc["run"]["trials"] = 5
        doc["sweep"] = {"axis": axis, "values": values, **kwargs}
        return doc

    def test_lo_ratio_sweep_deterministic_bytes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           self.sweep_doc(out, "lo_ratio", [1, 20]))
        assert cli.main(["sweep", "--config", cfg]) == 0
        first = (out / "lo_ratio_sweep.csv").read_bytes()
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert (out / "lo_ratio_sweep.csv").read_bytes() == first

    def test_manifest_echoes_config(self, tmp_path):
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "cell_length", [1, 2])
        cfg = write_config(tmp_path, doc)
        assert cli.main(["sweep", "--config", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == doc
        assert "code_version" in manifest and "wall_time_s" in manifest

    def test_manifest_replays_the_flags(self, tmp_path, monkeypatch):
        first, replay = tmp_path / "first", tmp_path / "replay"
        first.mkdir()
        replay.mkdir()
        cfg = write_config(tmp_path,
                           self.sweep_doc("elsewhere", "lo_ratio", [1, 20]))
        monkeypatch.chdir(first)
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert cli.main(["sweep", "--config", cfg, "--seed", "7",
                         "--out", "a"]) == 0
        want = (first / "a" / "lo_ratio_sweep.csv").read_bytes()
        assert want != (first / "elsewhere" / "lo_ratio_sweep.csv"
                        ).read_bytes()
        manifest = json.loads((first / "a" / "manifest.json").read_text())
        monkeypatch.chdir(replay)
        assert cli.main(["sweep", "--config", write_config(
            replay, manifest["config"], "manifest_config.json")]) == 0
        assert (replay / "a" / "lo_ratio_sweep.csv").read_bytes() == want

    def test_violating_geometry_warns_but_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "sampling_interval", [0.25, 0.5])
        doc["geometry"]["spacing_wavelengths"] = 0.5
        doc["geometry"]["cell_length_wavelengths"] = 16
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 0
        assert ("warning: the configured geometry violates sampling "
                "constraints; proceeding\n") in capsys.readouterr().out

    @pytest.mark.parametrize("axis, values, violating, verdict", [
        ("sampling_interval", [0.25, 0.5], "sampling_interval 0.5",
         "spacing 0.0738405 m: ALIASING RISK"),
        ("window_width", [0.25, 1.0], "window_width 1",
         "window width 0.147681 m: NULL IN BAND"),
        ("cell_length", [1, 2], None, None),
    ])
    def test_each_swept_geometry_is_checked(self, tmp_path, capsys, axis,
                                            values, violating, verdict):
        # the configured geometry complies; a sweep value that sets a
        # violating one gets its own report and warning, a compliant
        # sweep none
        out = tmp_path / "out"
        doc = self.sweep_doc(out, axis, values)
        doc["geometry"]["cell_length_wavelengths"] = 16
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 0
        printed = capsys.readouterr().out
        assert "configured geometry" not in printed
        if violating is None:
            assert "sampling compliance" not in printed
            return
        assert printed.count("sampling compliance") == 1
        assert f"  {verdict} (margin " in printed
        assert printed.count("warning: ") == 1
        assert (f"warning: the geometry at {violating} lambda violates "
                "sampling constraints; proceeding\n") in printed

    def test_length_sweep_with_too_short_a_cell_exit_3(self, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "cell_length", [4, 0.6, 2])
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == (
            "error: the bound needs a channel per parameter: K = 2 "
            "channels for 3 parameters\n")
        assert not out.exists()

    def test_length_sweep_runs_the_configured_geometry(self, tmp_path):
        doc = json.loads((REPO_CONFIGS / "fig6.json").read_text())
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "default")]) == 0
        doc["geometry"].update(spacing_wavelengths=0.2,
                               window_width_wavelengths=0.15)
        cfg = write_config(tmp_path, doc, "edited.json")
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "edited")]) == 0
        sc = load_config(cfg).scenario
        lam = sc.scene.rf_wavelength
        for angle in experiments.LENGTH_SWEEP_ANGLES_DEG:
            name = f"length_sweep_theta{angle:g}.csv"
            text = (tmp_path / "edited" / name).read_text()
            assert text != (tmp_path / "default" / name).read_text()
            for row in text.splitlines()[1:]:
                value, _, bound = row.split(",")[:3]
                geometry = dataclasses.replace(
                    sc.geometry, cell_length=float(value) * lam)
                assert float(bound) == np.rad2deg(
                    length_cell_std(sc, angle, geometry))

    @pytest.mark.parametrize("axis", ["sampling_interval", "window_width"])
    def test_sampling_demo_without_signal_amplitude_exit_3(self, tmp_path,
                                                           capsys, axis):
        # Normalising by the spectrum's maximum would divide by 0.
        out = tmp_path / "out"
        doc = self.sweep_doc(out, axis, [0.25, 0.5])
        doc["scene"]["lo"] = {"amplitude_v_per_m": 2e-5, "angle_deg": 90}
        doc["scene"]["signals"] = [{"amplitude_v_per_m": 0, "angle_deg": 0}]
        doc["prony"] = {"model_order": 2, "target_count": 1}
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == (
            "error: no target has a nonzero amplitude_v_per_m: the demo has "
            "no response to normalize\n")
        assert not out.exists()

    def test_linearization_kind(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "lo_ratio", [1, 10],
                             kind="linearization_check")
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 0
        assert (out / "linearization_check.csv").exists()
        assert "residual ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("values", [[30, 2900], [-3200, 30]])
    def test_snr_sweep_with_non_finite_bound_exit_3(self, tmp_path, capsys,
                                                    values):
        # The bound overlay of the single-target preset overflows at
        # 2900 dB and has a negative variance at -3200 dB, values the
        # config accepts.
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "snr_db", values)
        doc["run"]["trials"] = 2
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Fisher information or its bound is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("count, order", [(1, 4), (3, 6)])
    def test_target_count_other_than_the_scene_exit_2(self, tmp_path,
                                                      capsys, count, order):
        # An RMSE scored on fewer targets than the scene holds (or with
        # spurious ones) would not mean what its header says.
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "lo_ratio", [1, 20])
        doc["prony"] = {"model_order": order, "target_count": count}
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "error: 'prony.target_count' must equal the scene's signal "
            f"count 2, got {count}\n")
        assert not out.exists()

    def test_order_of_every_channel_fails_every_trial(self, tmp_path):
        # fig3c has K = 16 channels and an order-p prediction needs K > p:
        # the estimate rejects each stack whole, so every trial of every
        # cell fails and no RMSE is finite.
        out = tmp_path / "out"
        doc = json.loads((REPO_CONFIGS / "fig3c.json").read_text())
        doc["prony"]["model_order"] = 16
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 0
        header, *rows = (out / "lo_ratio_sweep.csv").read_text().splitlines()
        assert header == "axis_value,rmse_deg,crlb_deg,trials,failures"
        assert len(rows) == 7
        for row in rows:
            _, rmse, crlb, trials, failures = row.split(",")
            assert (rmse, crlb, failures) == ("inf", "", trials)

    def test_removed_parallel_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           self.sweep_doc(tmp_path / "a", "lo_ratio", [5]))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", cfg, "--threads", "4"])
        assert exc.value.code == 2
        assert not (tmp_path / "a").exists()


class TestCheckSampling:
    def test_compliant(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(tmp_path / "out"))
        assert cli.main(["check-sampling", "--config", cfg]) == 0
        assert "compliant" in capsys.readouterr().out

    def test_violation_reported(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["geometry"]["spacing_wavelengths"] = 0.5
        doc["geometry"]["cell_length_wavelengths"] = 8
        cfg = write_config(tmp_path, doc)
        assert cli.main(["check-sampling", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ALIASING RISK" in out
        assert "NOT compliant" in out


class TestIoErrors:
    def test_unwritable_output_dir_exit_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        doc = base_doc(blocker / "out")
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 4


REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_cli_import_leaves_scipy_unloaded():
    # numpy.random is imported on first use: loading it costs about 12 ms
    # of every CLI start.
    code = ("import sys, rydberg_doa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy' or m.startswith('numpy.random')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "[]"


def test_physics_import_loads_no_later_stage():
    # The package root holds only __version__: importing a module loads
    # that module and its own imports, not the rest of the pipeline.
    code = ("import sys, rydberg_doa.physics; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'rydberg_doa'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env)
    assert done.stdout.strip() == str(
        ["rydberg_doa", "rydberg_doa.errors", "rydberg_doa.physics"])


def test_parser_built_on_first_main_call_only():
    # Counts top-level parsers in a fresh interpreter: none at import, one
    # after any number of main calls.
    code = f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    if kwargs.get("prog") == "rydberg-doa":
        built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import rydberg_doa.cli as cli
print(len(built))
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        assert cli.main(["check-sampling", "--config",
                         {str(REPO_CONFIGS / "default.json")!r}]) == 0
print(len(built))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env)
    assert done.stdout.split() == ["0", "1"]


def test_every_flag_sets_a_parsed_config_key():
    # A flag reaches a command only as the config key it sets, so that key
    # is checked by parse_config and echoed in the manifest.
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for command in sub.choices.values()
             for action in command._actions if action.option_strings}
    assert dests - {"config", "help", "version"} == set(FLAG_KEYS)
    for section, key in FLAG_KEYS.values():
        doc = base_doc("out")
        doc.setdefault(section, {})[key] = []
        with pytest.raises(ConfigParseError,
                           match=f"^'{section}.{key}' must be "):
            parse_config(doc)


@pytest.mark.parametrize("argv", [
    ["simulate"], ["estimate", "measurement.csv"], ["crlb"], ["sweep"],
    ["check-sampling"]], ids=lambda argv: argv[0])
def test_order_is_no_flag(capsys, argv):
    # prony.model_order has one spelling, the config key: argparse
    # refuses --order before any config is read.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", "missing.json", "--order", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --order 4\n")


def test_readme_flags_are_every_subcommands_options():
    # README's Flags: line names exactly the options each subcommand has.
    readme = (REPO_CONFIGS.parent / "README.md").read_text()
    line = re.search(r"^Flags: (.*?)\. ", readme, re.M).group(1)
    named = set(re.findall(r"`(--[a-z-]+)", line))
    assert named == {"--config", "--out", "--seed"}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices.values():
        options = {option for action in command._actions
                   for option in action.option_strings}
        assert options - {"-h", "--help"} == named


def test_every_prony_field_is_a_config_key():
    # A PronyConfig field that no config can set is dead.
    doc = base_doc("out")
    doc["prony"]["?"] = 0
    with pytest.raises(ConfigParseError) as exc:
        parse_config(doc)
    allowed = re.fullmatch(r"unknown key 'prony\.\?' \(allowed: (.*)\)",
                           str(exc.value)).group(1)
    assert set(allowed.split(", ")) == {
        f.name for f in dataclasses.fields(PronyConfig)}


def test_every_atomic_field_is_a_config_key():
    # An AtomicParams field that no config can set is dead.
    assert {name for name, _ in _ATOM_KEYS.values()} == {
        f.name for f in dataclasses.fields(AtomicParams)}


@pytest.mark.parametrize("key", sorted(_ATOM_KEYS))
def test_no_atoms_key_is_dead(tmp_path, key):
    # Each atoms key, set away from its default in configs/default.json,
    # changes the measurement vector that simulate writes.
    name, scale = _ATOM_KEYS[key]
    default = getattr(AtomicParams(), name) / scale
    doc = json.loads((REPO_CONFIGS / "default.json").read_text())
    written = []
    for atoms in ({}, {key: 1.5 * default if default else 5e3}):
        out = tmp_path / str(len(written))
        doc["atoms"] = atoms
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 0
        written.append((out / "measurement.csv").read_bytes())
    assert written[0] != written[1]


def _run_captured(capsys, run, argv):
    """(exit code, stdout, stderr) of run(argv); a SystemExit is a code."""
    capsys.readouterr()
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main reuses one parser per process: its text, exit codes and parsed
    values must equal those of a freshly built parser on every call."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["simulate", "--help"],
        ["estimate", "--help"],
        ["crlb", "--help"],
        ["sweep", "--help"],
        ["check-sampling", "--help"],
        ["--version"],
        [],
        ["frobnicate", "--config", "x.json"],
        ["crlb"],
        ["estimate", "--config", "x.json"],
        ["crlb", "--config", "x.json", "--bogus"],
        ["sweep", "--config", "x.json", "--seed", "two"],
        ["simulate", "--config", "x.json", "--order", "two"],
    ], ids=lambda argv: " ".join(argv) or "no-args")
    def test_text_and_exit_code_match_fresh_parser(self, capsys, argv):
        fresh = getattr(cli.build_parser, "__wrapped__", cli.build_parser)
        want = _run_captured(capsys, lambda a: fresh().parse_args(a), argv)
        assert want[0] in (0, 2)
        for _ in range(2):
            assert _run_captured(capsys, cli.main, argv) == want

    def test_no_value_carries_over_between_calls(self, tmp_path, capsys,
                                                 monkeypatch):
        doc = base_doc("out")
        doc["noise"]["snr_db"] = 30
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "source")]) == 0
        csv_path = str(tmp_path / "source" / "measurement.csv")
        sequence = [
            ["estimate", csv_path, "--config", "config.json"],
            ["crlb", "--config", "config.json"],
            ["simulate", "--config", "config.json", "--seed", "7",
             "--out", "flags"],
            ["estimate", csv_path, "--config", "config.json",
             "--out", "flags"],
            ["simulate", "--config", "config.json"],
            ["estimate", csv_path, "--config", "config.json"],
        ]

        def outputs():
            return {str(p.relative_to(tmp_path)): p.read_bytes()
                    for d in ("out", "flags")
                    for p in sorted((tmp_path / d).iterdir())}

        with monkeypatch.context() as patch:
            patch.chdir(tmp_path)
            one_process = [_run_captured(capsys, cli.main, argv)
                           for argv in sequence]
        files = outputs()
        assert len(files) == 8
        for d in ("out", "flags"):
            for path in (tmp_path / d).iterdir():
                path.unlink()

        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        separate = []
        for argv in sequence:
            done = subprocess.run(
                [sys.executable, "-m", "rydberg_doa.cli", *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path)
            separate.append((done.returncode, done.stdout, done.stderr))
        assert one_process == separate
        assert outputs() == files
        # The later simulate draws base_seed 0's noise again, not seed 7's.
        assert files["out/measurement.csv"] != files["flags/measurement.csv"]


def test_readme_config_example_parses():
    # README's schema example, less its // comments, is a config that
    # parses to what it shows: the docs name no key that the parser
    # rejects.
    readme = (REPO_CONFIGS.parent / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    sc = parse_config(json.loads(re.sub(r"//.*", "", block))).scenario
    assert sc.sweep.axis == "lo_ratio"
    assert sc.geometry.channel_count == 16


def test_readme_python_quick_start_runs():
    # README's library quick start runs as written from the repository
    # root and finds the default scene's two bearings.
    root = REPO_CONFIGS.parent
    block = re.search(r"```python\n(.*?)```", (root / "README.md").read_text(),
                      re.S).group(1)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=env, cwd=root, timeout=120)
    assert done.returncode == 0, done.stderr
    doas = sorted(float(v) for v in re.findall(r"-?\d+\.\d*", done.stdout))
    np.testing.assert_allclose(doas, [-30.0, 45.0], atol=0.5)


def test_demo_pipeline_script_runs():
    script = REPO_CONFIGS.parent / "scripts" / "demo_pipeline.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "estimated bearings:" in done.stdout


class TestBundledConfigs:
    def test_default_config_simulates_quickly(self, tmp_path):
        started = time.perf_counter()
        assert cli.main(["simulate",
                         "--config", str(REPO_CONFIGS / "default.json"),
                         "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - started < 10.0
        assert (tmp_path / "measurement.csv").exists()

    @pytest.mark.parametrize("name", ["fig2", "fig3c", "fig4", "fig6",
                                      "fig7a", "fig7b"])
    def test_figure_configs_run(self, tmp_path, name):
        started = time.perf_counter()
        assert cli.main(["sweep",
                         "--config", str(REPO_CONFIGS / f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0
        assert time.perf_counter() - started < 300.0
        assert (tmp_path / name / "manifest.json").exists()
