import itertools
from dataclasses import replace

import numpy as np
import pytest

from rydberg_doa import (
    estimation,
    experiments,
    physics,
    scenarios,
    sensing,
    serialize,
)
from rydberg_doa.errors import ConfigParseError, RydbergDoaError
from rydberg_doa.estimation import PronyConfig, estimate_doa
from rydberg_doa.experiments import (
    ScenarioConfig,
    SweepSpec,
    match_errors,
    mc_rmse,
    run_length_sweep,
    run_linearization_check,
    run_lo_ratio_sweep,
    run_sampling_demo,
    run_snr_sweep,
)
from rydberg_doa.physics import PlaneWave, RfScene

from oracles import greedy_signal_roots


@pytest.fixture()
def base_config(params, two_target, geometry):
    return ScenarioConfig(
        scene=two_target, geometry=geometry,
        prony=PronyConfig(model_order=4, target_count=2),
        params=params, snr_db=30.0, trials=20, base_seed=7)


class TestMcRmse:
    def test_zero_noise_is_exact(self, base_config):
        noiseless = ScenarioConfig(
            scene=base_config.scene, geometry=base_config.geometry,
            prony=base_config.prony, params=base_config.params,
            snr_db=None, trials=1, base_seed=0)
        result = mc_rmse(noiseless)
        assert result.failures == 0
        assert result.rmse_rad < 1e-6

    def test_single_trial_reproducible(self, base_config):
        one = ScenarioConfig(
            scene=base_config.scene, geometry=base_config.geometry,
            prony=base_config.prony, params=base_config.params,
            snr_db=30.0, trials=1, base_seed=3)
        first = mc_rmse(one)
        second = mc_rmse(one)
        assert first.rmse_rad == second.rmse_rad

    def test_matching_is_permutation_invariant(self):
        est = np.array([0.5, -0.3, 0.1])
        truth = np.array([-0.31, 0.52, 0.09])
        direct = np.sort(match_errors(est, truth))
        permuted = np.sort(match_errors(est, truth[::-1]))
        np.testing.assert_allclose(direct, permuted)

    def test_matching_against_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            truth = rng.uniform(-1.0, 1.0, n)
            est = rng.uniform(-1.0, 1.0, (200, n))
            got = match_errors(est, truth)
            assert got.shape == (200, n)
            for row, errors in zip(est, got):
                best = None
                for perm in itertools.permutations(range(n)):
                    cand = [abs(e - truth[p]) for e, p in zip(row, perm)]
                    if best is None or sum(cand) < sum(best):
                        best = cand
                np.testing.assert_array_equal(errors, best)

    def test_matching_tie_keeps_first_pairing(self):
        # both estimates beyond both truths: every pairing totals 2.25
        got = match_errors(np.array([[1.0, 2.0]]), np.array([0.25, 0.5]))
        np.testing.assert_array_equal(got, [[0.75, 1.5]])

    @pytest.mark.parametrize("estimated", [[0.42], [[0.1, 0.2, 0.3]]])
    def test_matching_needs_one_estimate_per_truth(self, estimated):
        with pytest.raises(ValueError, match="one estimate per truth"):
            match_errors(np.array(estimated), np.array([-0.3, 0.4]))

    @pytest.mark.parametrize("count", [1, 3])
    def test_target_count_other_than_the_scene_is_a_config_error(
            self, base_config, count):
        cell = replace(base_config, prony=PronyConfig(
            model_order=2 * count, target_count=count))
        with pytest.raises(ConfigParseError, match=(
                "^'prony.target_count' must equal the scene's signal count "
                f"2, got {count}$")):
            mc_rmse(cell)

    def test_batch_matches_serial_estimates(self, params, geometry):
        """One batched solve agrees with estimate_doa row by row: the
        same failing rows and exception classes, DoAs within 1e-9 rad."""
        prony = PronyConfig(model_order=4, target_count=2)
        classes = set()
        for name in ("wide_pair", "close_pair"):
            scene = scenarios.scene_from_angles(
                experiments.SNR_PRESETS[name])
            meta = (scene.wavenumber, scene.lo.angle)
            clean = sensing.predicted_measurements(scene, geometry, params)
            for snr in range(10, 55, 5):
                stack = sensing.add_noise(clean, float(snr),
                                          range(1000 * snr, 1000 * snr + 100))
                classes |= assert_rows_match(stack, meta, prony)
        assert {None, "InsufficientSignalRoots"} <= classes

        # Three tones exactly on the unit circle and two targets: every
        # candidate distance ties, so the tie rule must choose, as the
        # one-at-a-time greedy selection does.
        k = geometry.channel_count
        tones = sum(np.cos(w * np.arange(k) + 0.3) for w in (0.6, 0.8, 1.0))
        noisy = tones + np.random.default_rng(1).normal(0.0, 0.01, (2, k))
        stack = sensing.MeasurementVector(
            values=np.vstack([noisy[0], tones, noisy[1]]), geometry=geometry)
        prony = PronyConfig(model_order=6, target_count=2)
        assert_rows_match(stack, (500.0, np.pi / 2), prony)
        roots, _ = estimation.char_poly_roots(estimation.solve_lpc(
            *estimation.build_hankel(stack.values[1], 6))[0])
        floor = 2 * np.pi * estimation.DC_GUARD_CYCLES / k
        want, found = greedy_signal_roots(roots, 2, 0.2, floor)
        assert found == 3
        want = want[np.argsort(np.abs(np.angle(want)))]
        batch = estimation.estimate_doa_batch(stack, (500.0, np.pi / 2),
                                              prony)
        np.testing.assert_array_equal(batch.roots[1], want)


def assert_rows_match(stack, meta, prony) -> set:
    """Batched estimate vs estimate_doa on each row; returns the outcome
    classes seen (None for success)."""
    batch = estimation.estimate_doa_batch(stack, meta, prony)
    seen = set()
    for t, values in enumerate(stack.values):
        try:
            serial = estimate_doa(replace(stack, values=values),
                                  meta, prony)
        except RydbergDoaError as exc:
            assert type(batch.errors[t]) is type(exc), t
            seen.add(type(exc).__name__)
            continue
        assert batch.errors[t] is None, t
        got = batch.result(t)
        np.testing.assert_allclose(got.doas, serial.doas, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(got.clamped_flags, serial.clamped_flags)
        seen.add(None)
    return seen


class TestLinearizationCheck:
    def test_residual_ratio_bracket(self, params, two_target, geometry):
        grid = geometry.grid(two_target.rf_wavelength)
        check = run_linearization_check(
            params, scenarios.with_lo_ratio(two_target, 1.0),
            scenarios.with_lo_ratio(two_target, 10.0), grid)
        assert 4.0 <= check.residual_ratio <= 30.0

    def test_zero_signal_scene_no_residual(self, params, geometry,
                                           rf_wavelength):
        lo_only_weak = RfScene(lo=PlaneWave(1e-5, 0.0, np.pi / 2),
                               carrier_freq=2.03e9)
        lo_only_strong = RfScene(lo=PlaneWave(1e-4, 0.0, np.pi / 2),
                                 carrier_freq=2.03e9)
        grid = geometry.grid(rf_wavelength)
        check = run_linearization_check(params, lo_only_weak,
                                        lo_only_strong, grid)
        assert check.rms_weak == 0.0
        assert check.rms_strong == 0.0

    def test_rejects_mismatched_signals(self, params, two_target, geometry):
        other = scenarios.scene_from_angles((10.0, 20.0))
        with pytest.raises(ValueError):
            run_linearization_check(params, two_target, other,
                                    geometry.grid(two_target.rf_wavelength))

    def test_csv_row_count_matches_grid(self, params, two_target, geometry,
                                        tmp_path):
        grid = geometry.grid(two_target.rf_wavelength)
        check = run_linearization_check(
            params, scenarios.with_lo_ratio(two_target, 1.0),
            scenarios.with_lo_ratio(two_target, 10.0), grid)
        path = tmp_path / "check.csv"
        serialize.write_linearization_csv(check, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(grid) + 1


class TestLoRatioSweep:
    def test_sweep_shape_and_determinism(self, base_config, tmp_path):
        cfg = ScenarioConfig(
            scene=base_config.scene, geometry=base_config.geometry,
            prony=base_config.prony, params=base_config.params,
            snr_db=30.0, trials=10, base_seed=5,
            sweep=SweepSpec(axis="lo_ratio", values=(1.0, 20.0)))
        result = run_lo_ratio_sweep(cfg)
        assert result.values == (1.0, 20.0)
        assert len(result.rmse_rad) == 2
        assert result.rmse_rad[0] > result.rmse_rad[1]
        paths = []
        for run in range(2):
            path = tmp_path / f"sweep{run}.csv"
            serialize.write_sweep_csv(run_lo_ratio_sweep(cfg), path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestSnrSweep:
    def test_presets_and_ordering(self, base_config):
        cfg = ScenarioConfig(
            scene=base_config.scene, geometry=base_config.geometry,
            prony=base_config.prony, params=base_config.params,
            snr_db=None, trials=25, base_seed=11,
            sweep=SweepSpec(axis="snr_db", values=(20.0, 30.0, 40.0)))
        results = run_snr_sweep(cfg)
        assert set(results) == {"single_15", "wide_pair", "close_pair"}
        single = results["single_15"]
        assert single.crlb_std_rad is not None
        assert len(single.crlb_std_rad) == 3
        # monotone non-increasing with one inversion allowed
        rmse = np.array(single.rmse_rad)
        assert np.sum(np.diff(rmse) > 0) <= 1
        # close pair at least as hard as the wide pair
        close = np.array(results["close_pair"].rmse_rad)
        wide = np.array(results["wide_pair"].rmse_rad)
        assert np.all(close >= wide)
        # estimator never beats the bound meaningfully
        finite = np.isfinite(rmse)
        assert np.all(rmse[finite] >= 0.7 * np.array(single.crlb_std_rad)[finite])

    def test_lowest_snr_cell_is_analytic(self, base_config, readout_stacks):
        # Every single_15 cell, the lowest SNR's included, is the analytic
        # mc_rmse cell: no fluorescence readout runs.
        values = (30.0, 10.0, 20.0)
        cfg = replace(base_config, trials=30, base_seed=3,
                      sweep=SweepSpec(axis="snr_db", values=values))
        single = run_snr_sweep(cfg)["single_15"]
        assert readout_stacks == []
        scene = experiments._preset_scene(cfg, (15.0,))
        prony = replace(cfg.prony, model_order=2, target_count=1)
        cells = [mc_rmse(seeded_cell(cfg, c, scene=scene, prony=prony,
                                     snr_db=snr))
                 for c, snr in enumerate(values)]
        assert single.rmse_rad == tuple(r.rmse_rad for r in cells)
        assert single.failures == tuple(r.failures for r in cells)


def seeded_cell(config, c, **overrides):
    """Cell c of a sweep of config, seeded explicitly."""
    return replace(config, sweep=None, **overrides,
                   base_seed=config.base_seed
                   + experiments.CELL_SEED_STRIDE * c)


@pytest.fixture()
def solve_rows(monkeypatch):
    """Row counts of every batched solve the Monte Carlo engine makes."""
    rows = []
    solve = experiments.estimate_doa_batch

    def recording(measurements, *args):
        rows.append(len(measurements.values))
        return solve(measurements, *args)

    monkeypatch.setattr(experiments, "estimate_doa_batch", recording)
    return rows


@pytest.fixture()
def readout_stacks(monkeypatch):
    """Scene counts of every fluorescence readout the engine makes."""
    stacks = []
    readout = sensing.simulate_measurements

    def recording(scenes, *args):
        stacks.append(len(scenes))
        return readout(scenes, *args)

    monkeypatch.setattr(sensing, "simulate_measurements", recording)
    return stacks


class TestMcSweepStacking:
    """Cells that share a prediction system run as one solve, the cells of
    an LO-ratio sweep as one fluorescence readout, and every cell keeps
    exactly the result of its own one-cell run."""

    def test_fluorescence_cells_share_one_solve(self, base_config,
                                                solve_rows, readout_stacks):
        ratios = (1.0, 3.0, 20.0, 50.0)
        cfg = replace(base_config, trials=1, base_seed=4,
                      sweep=SweepSpec(axis="lo_ratio", values=ratios))
        result = run_lo_ratio_sweep(cfg)
        assert solve_rows == [len(ratios)]
        assert readout_stacks == [len(ratios)]
        cells = [experiments._mc_sweep(seeded_cell(
            cfg, c, scene=scenarios.with_lo_ratio(cfg.scene, ratio)), ({},),
            fluorescence=True)[0] for c, ratio in enumerate(ratios)]
        assert len(set(result.rmse_rad)) == len(ratios)
        assert result.rmse_rad == tuple(r.rmse_rad for r in cells)
        assert result.failures == tuple(r.failures for r in cells)

    def test_snr_presets_share_solves_by_order(self, base_config,
                                               solve_rows):
        values = (25.0, 10.0, 40.0)
        cfg = replace(base_config, trials=40, base_seed=11,
                      sweep=SweepSpec(axis="snr_db", values=values))
        results = run_snr_sweep(cfg)
        # single_15 (p = 2) in one solve, wide_pair and close_pair
        # (p = 4) in another.
        assert solve_rows == [3 * 40, 6 * 40]
        self.assert_matches_cells(cfg, results)
        failures = results["close_pair"].failures
        assert any(0 < f < cfg.trials for f in failures)

    def test_whole_cell_failure_inside_a_stack(self, base_config,
                                               solve_rows):
        scene = base_config.scene
        silent = replace(scene, signals=tuple(
            replace(s, amplitude=0.0) for s in scene.signals))
        close = scenarios.scene_from_angles(experiments.SNR_PRESETS[
            "close_pair"], lo_angle=scene.lo.angle)
        cells = ({"scene": scene}, {"scene": silent},
                 {"scene": close, "snr_db": 35.0}, {"scene": scene})
        results = experiments._mc_sweep(base_config, cells)
        assert solve_rows == [3 * base_config.trials]
        assert results[1] == experiments.McResult(
            rmse_rad=np.inf, failures=base_config.trials)
        assert 0 < results[2].failures < base_config.trials
        assert results == [mc_rmse(seeded_cell(base_config, c, **o))
                           for c, o in enumerate(cells)]

    def test_stacks_stay_within_the_row_budget(self, base_config,
                                               solve_rows):
        budget = experiments.MC_STACK_ROWS
        values = (20.0, 30.0, 40.0)
        trials = budget // 3 + 7
        cfg = replace(base_config, trials=trials, base_seed=2,
                      sweep=SweepSpec(axis="snr_db", values=values))
        results = run_snr_sweep(cfg)
        assert sum(solve_rows) == 3 * len(values) * trials
        assert len(solve_rows) > 2
        assert max(solve_rows) <= budget
        self.assert_matches_cells(cfg, results)

    def test_cells_are_never_split(self, base_config, solve_rows,
                                   monkeypatch):
        monkeypatch.setattr(experiments, "MC_STACK_ROWS", 100)
        sizes = (30, 50, 40, 150, 10, 60)
        cells = tuple({"trials": n, "snr_db": 15.0} for n in sizes)
        results = experiments._mc_sweep(base_config, cells)
        assert solve_rows == [80, 40, 150, 70]
        assert results == [mc_rmse(seeded_cell(base_config, c, **o))
                           for c, o in enumerate(cells)]

    @staticmethod
    def assert_matches_cells(cfg, results):
        c = 0
        for name, angles in experiments.SNR_PRESETS.items():
            n = len(angles)
            scene = experiments._preset_scene(cfg, angles)
            cells = []
            for snr in cfg.sweep.values:
                cells.append(mc_rmse(seeded_cell(
                    cfg, c, scene=scene, snr_db=snr,
                    prony=replace(cfg.prony, model_order=2 * n,
                                  target_count=n))))
                c += 1
            assert results[name].rmse_rad == tuple(
                r.rmse_rad for r in cells), name
            assert results[name].failures == tuple(
                r.failures for r in cells), name


class TestLengthSweep:
    def test_monotone_and_angle_ordering(self, base_config):
        cfg = ScenarioConfig(
            scene=base_config.scene, geometry=base_config.geometry,
            prony=base_config.prony, params=base_config.params,
            snr_db=30.0, trials=1, base_seed=0,
            sweep=SweepSpec(axis="cell_length", values=(1.0, 2.0, 4.0, 8.0)))
        results = run_length_sweep(cfg)
        assert set(results) == {0.0, 30.0, 60.0}
        for angle, result in results.items():
            bounds = np.array(result.crlb_std_rad)
            assert np.all(np.diff(bounds) < 0), f"not monotone at {angle}"
        wide = np.array(results[60.0].crlb_std_rad)
        broadside = np.array(results[0.0].crlb_std_rad)
        assert np.all(wide > broadside)

    def test_bound_needs_exactly_one_noise_argument(self, params,
                                                    geometry):
        scene = scenarios.scene_from_angles((15.0,))
        with pytest.raises(ValueError, match="exactly one of snr_db"):
            experiments.crlb_std_for(scene, geometry, params)
        with pytest.raises(ValueError, match="exactly one of snr_db"):
            experiments.bound_report(scene, geometry, params, snr_db=10.0,
                                     sigma2=1e-40)
        sigma2 = sensing.noise_variance(sensing.predicted_measurements(
            scene, geometry, params).values, 10.0)
        np.testing.assert_array_equal(
            experiments.crlb_std_for(scene, geometry, params, snr_db=10.0),
            experiments.crlb_std_for(scene, geometry, params, sigma2=sigma2))

    def test_channel_count_tracks_length(self, rf_wavelength):
        for length_wl in (1.0, 2.0, 4.0, 8.0):
            geom = scenarios.default_geometry(rf_wavelength,
                                              cell_wavelengths=length_wl)
            expected = int(np.floor(
                (geom.cell_length - geom.window_width) / geom.spacing + 1e-9
            )) + 1
            assert geom.channel_count == expected


class TestSamplingDemo:
    def demo_config(self, base_config, axis, values, target_deg,
                    cell_wl=16.0):
        lam = base_config.scene.rf_wavelength
        return ScenarioConfig(
            scene=scenarios.scene_from_angles(
                (target_deg,), lo_angle=base_config.scene.lo.angle),
            geometry=scenarios.default_geometry(lam,
                                                cell_wavelengths=cell_wl),
            prony=base_config.prony, params=base_config.params,
            snr_db=None, trials=1, base_seed=0,
            sweep=SweepSpec(axis=axis, values=values))

    def test_aliasing_case(self, base_config):
        cfg = self.demo_config(base_config, "sampling_interval", (0.25, 0.5),
                               60.0)
        result = run_sampling_demo(cfg)
        angles = result.angles_deg
        compliant, violated = result.curves
        peak = angles[np.argmax(compliant.power)]
        assert abs(peak - 60.0) <= 1.0
        near_mirror = (angles >= -63.0) & (angles <= -57.0)
        assert violated.power[near_mirror].max() >= \
            0.8 * violated.power.max()
        # the compliant curve has no comparable mirror peak
        assert compliant.power[near_mirror].max() < 0.1

    def test_window_null_case(self, base_config):
        cfg = self.demo_config(base_config, "window_width", (0.25, 1.0), 0.0)
        result = run_sampling_demo(cfg)
        angles = result.angles_deg
        compliant, violated = result.curves
        at_zero = np.argmin(np.abs(angles))
        assert compliant.power[at_zero] == pytest.approx(1.0, abs=0.05)
        assert violated.power[at_zero] < 0.01

    @pytest.mark.parametrize("axis", ["sampling_interval", "window_width"])
    @pytest.mark.parametrize("target_deg", [20.0, -35.0])
    def test_compliant_peak_on_the_configured_target(self, base_config, axis,
                                                     target_deg):
        cfg = self.demo_config(base_config, axis, (0.25, 0.5), target_deg)
        result = run_sampling_demo(cfg)
        compliant = result.curves[0].power
        assert abs(result.angles_deg[np.argmax(compliant)] - target_deg) \
            <= experiments.DEMO_ANGLE_STEP_DEG

    def test_demo_csv_schema(self, base_config, tmp_path):
        cfg = self.demo_config(base_config, "window_width", (0.25, 1.0), 0.0)
        result = run_sampling_demo(cfg)
        path = tmp_path / "demo.csv"
        serialize.write_sampling_demo_csv(result, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["angle_deg", "power_width_0.25wl",
                          "power_width_1wl"]
