import json
import time
from pathlib import Path

import numpy as np
import pytest

from rydberg_doa import cli, experiments, serialize
from rydberg_doa.errors import SchemaError


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

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["simulate", "--config",
                         str(tmp_path / "nope.json")]) == 2

    def test_trials_overlapping_cell_seeds_exit_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["run"]["trials"] = experiments.CELL_SEED_STRIDE
        assert cli.main(["check-sampling", "--config",
                         write_config(tmp_path, doc)]) == 2
        assert "run.trials" in capsys.readouterr().err
        doc["run"]["trials"] = experiments.CELL_SEED_STRIDE - 1
        assert cli.main(["check-sampling", "--config",
                         write_config(tmp_path, doc)]) == 0

    def test_ambiguous_units_exit_2(self, tmp_path, capsys):
        doc = base_doc(tmp_path / "out")
        doc["geometry"]["cell_length_m"] = 0.5
        assert cli.main(["simulate", "--config",
                         write_config(tmp_path, doc)]) == 2


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
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["run"]["absorption_model"] = "linearized"
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert cli.main(["estimate", str(out / "measurement.csv"),
                         "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "estimation.json").read_text())
        got = np.sort(result["doas_deg"])
        np.testing.assert_allclose(got, [-30.0, 45.0], atol=1e-4)

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
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli.main(["simulate", "--config", cfg, "--format",
                         "json"]) == 0
        assert (out / "measurement.json").exists()


class TestEstimate:
    def test_malformed_csv_names_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        bad = tmp_path / "bad.csv"
        bad.write_text("j,x_j_m,y_tilde\n1,0.01,0.5\n2,oops,0.4\n")
        code = cli.main(["estimate", str(bad), "--config", cfg])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_order_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["run"]["absorption_model"] = "linearized"
        cfg = write_config(tmp_path, doc)
        cli.main(["simulate", "--config", cfg])
        assert cli.main(["estimate", str(out / "measurement.csv"),
                         "--config", cfg, "--out", str(out),
                         "--order", "6"]) == 0
        result = json.loads((out / "estimation.json").read_text())
        assert len(result["lpc_coefficients"]) == 6

    def test_read_measurement_roundtrip(self, tmp_path, geometry):
        from rydberg_doa.sensing import MeasurementVector
        values = np.sin(0.7 * np.arange(geometry.channel_count))
        mv = MeasurementVector(values=values, geometry=geometry)
        path = tmp_path / "mv.csv"
        serialize.write_measurement_csv(mv, path)
        centers, read_values = serialize.read_measurement_csv(path)
        np.testing.assert_allclose(centers, geometry.centers, rtol=1e-15)
        np.testing.assert_allclose(read_values, values, rtol=1e-15)

    def test_nonuniform_centers_rejected(self):
        with pytest.raises(SchemaError):
            serialize.geometry_from_centers(np.array([0.0, 0.1, 0.3]))


class TestCrlbCommand:
    def test_single_target_cross_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["scene"]["signals"] = [
            {"amplitude_v_per_m": 1e-6, "phase_deg": 0, "angle_deg": 15}]
        doc["prony"] = {"model_order": 2, "target_count": 1}
        doc["noise"]["snr_db"] = 40
        code = cli.main(["crlb", "--config", write_config(tmp_path, doc)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "closed form" in captured
        assert (out / "crlb.json").exists()
        assert (out / "crlb.csv").exists()

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

    def test_violating_geometry_warns_but_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "sampling_interval", [0.25, 0.5])
        doc["geometry"]["spacing_wavelengths"] = 0.5
        doc["geometry"]["cell_length_wavelengths"] = 16
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 0
        assert "proceeding" in capsys.readouterr().out

    def test_linearization_kind(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = self.sweep_doc(out, "lo_ratio", [1, 10],
                             kind="linearization_check")
        assert cli.main(["sweep", "--config",
                         write_config(tmp_path, doc)]) == 0
        assert (out / "linearization_check.csv").exists()
        assert "residual ratio" in capsys.readouterr().out

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
