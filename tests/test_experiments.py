import itertools
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rydberg_doa import (
    cli,
    estimation,
    experiments,
    physics,
    scenarios,
    sensing,
    serialize,
)
from rydberg_doa.errors import (
    ConfigParseError,
    LoDominanceWarning,
    RydbergDoaError,
)
from rydberg_doa.estimation import PronyConfig, estimate_doa
from rydberg_doa.experiments import (
    ScenarioConfig,
    SweepResult,
    SweepSpec,
    match_errors,
    mc_rmse,
    run_length_sweep,
    run_linearization_check,
    run_lo_ratio_sweep,
    run_sampling_demo,
    run_snr_sweep,
)
from rydberg_doa.sensing import SensorGeometry

from oracles import greedy_signal_roots, length_cell_std

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def base_config(params, two_target, geometry):
    return ScenarioConfig(
        scene=two_target, geometry=geometry,
        prony=PronyConfig(model_order=4, target_count=2),
        params=params, snr_db=30.0, trials=20, base_seed=7)


class TestMcRmse:
    def test_zero_noise_is_exact(self, base_config, monkeypatch):
        # A noiseless cell (snr_db None), alone or in an LO-ratio sweep,
        # fails no trial, and every row of the stack the solve reads is its
        # cell's clean vector bit for bit.
        stacks, solve = [], experiments.estimate_doa_batch

        def solving(measurements, *args):
            stacks.append(measurements.values.tobytes())
            return solve(measurements, *args)

        monkeypatch.setattr(experiments, "estimate_doa_batch", solving)
        noiseless = ScenarioConfig(
            scene=base_config.scene, geometry=base_config.geometry,
            prony=base_config.prony, params=base_config.params,
            snr_db=None, trials=3, base_seed=0)
        result = mc_rmse(noiseless)
        assert result.failures == 0
        assert result.rmse_rad < 1e-6
        clean = sensing.predicted_measurements(
            noiseless.scene, noiseless.geometry, noiseless.params).values
        assert stacks == [np.tile(clean, (3, 1)).tobytes()]

        ratios = (5.0, 20.0, 50.0)
        sweep = run_lo_ratio_sweep(replace(noiseless, sweep=SweepSpec(
            axis="lo_ratio", values=ratios)))
        assert [c.failures for c in sweep.cells] == [0, 0, 0]
        readout = sensing.simulate_measurements(
            noiseless.scene, noiseless.geometry, noiseless.params,
            [scenarios.with_lo_ratio(noiseless.scene, r).lo.amplitude
             for r in ratios]).values
        assert stacks[1:] == [np.repeat(readout, 3, axis=0).tobytes()]

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

    @staticmethod
    def brute_force_matching(row, truth):
        """The errors of the first pairing, in permutations order, whose
        total is smallest."""
        best = None
        for perm in itertools.permutations(range(len(truth))):
            cand = np.abs(row - truth[list(perm)])
            if best is None or cand.sum() < best.sum():
                best = cand
        return best

    @pytest.mark.parametrize("chunk", [720, 5])
    @pytest.mark.parametrize("n, rows, values", [
        (4, 200, "integers"), (5, 40, "integers"), (7, 4, "uniform")])
    def test_chunked_matching_is_the_brute_force(self, monkeypatch, chunk,
                                                 n, rows, values):
        # integer angles tie exactly and often, across chunk boundaries
        monkeypatch.setattr(experiments, "MATCH_CHUNK", chunk)
        rng = np.random.default_rng(n)
        draw = ((lambda size: rng.integers(0, 3, size).astype(float))
                if values == "integers" else
                (lambda size: rng.uniform(-1.0, 1.0, size)))
        truth, est = draw(n), draw((rows, n))
        got = match_errors(est, truth)
        for row, errors in zip(est, got):
            np.testing.assert_array_equal(
                errors, self.brute_force_matching(row, truth))

    @pytest.mark.xfail(strict=True, reason=(
        "match_errors keeps the first of the pairings tied on total "
        "|error|, so the squared error of estimates on one side of both "
        "truths depends on their order; perfbench/checks.py::matched_errors "
        "holds the same rule, so both change together"))
    def test_squared_error_does_not_depend_on_estimate_order(self):
        # Both pairings total 6.8 deg, but score 39.94 deg^2 and 31.94
        # deg^2. Pairing in sorted order would score 31.94 either way.
        truth = np.array([15.0, 20.0])
        scores = [float((match_errors(np.array(est), truth) ** 2).sum())
                  for est in ([21.3, 20.5], [20.5, 21.3])]
        assert scores[0] == pytest.approx(scores[1])

    def test_all_pairings_tie_and_the_identity_wins(self):
        # every estimate beyond every truth: all 5,040 pairings total 70,
        # over seven chunks
        np.testing.assert_array_equal(
            match_errors(np.arange(10.0, 17.0), np.arange(7.0)),
            np.full(7, 10.0))

    def test_matching_memory_is_bounded(self):
        # the costs of 720 pairings at a time, not of all 5,040
        rng = np.random.default_rng(7)
        truth, est = rng.uniform(-1.0, 1.0, 7), rng.uniform(-1.0, 1.0,
                                                            (20, 7))
        tracemalloc.start()
        try:
            match_errors(est, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

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
            assert batch.failed[t], t
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                batch.row(t)
            seen.add(type(exc).__name__)
            continue
        assert not batch.failed[t], t
        got = batch.row(t)
        np.testing.assert_allclose(got.doas, serial.doas, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(got.clamped_flags, serial.clamped_flags)
        seen.add(None)
    return seen


class TestLinearizationCheck:
    @staticmethod
    def check_config(base_config, ratios=(1.0, 10.0)):
        return replace(base_config, sweep=SweepSpec(
            axis="lo_ratio", values=ratios, kind="linearization_check"))

    def test_residual_ratio_bracket(self, base_config):
        check = run_linearization_check(self.check_config(base_config))
        assert 4.0 <= check.residual_ratio <= 30.0

    def test_rows_are_the_one_scene_profiles(self, base_config):
        # the weak and strong regimes are the smallest and largest swept
        # ratios, on the geometry's grid; each LO level's exact profile is
        # the one-scene call, bit for bit, and its linear one the one-scene
        # call on that scene's modulation amplitudes
        params, scene = base_config.params, base_config.scene
        grid = base_config.geometry.grid(scene.rf_wavelength)
        check = run_linearization_check(
            self.check_config(base_config, (10.0, 4.0, 1.0)))
        assert (check.ratio_weak, check.ratio_strong) == (1.0, 10.0)
        np.testing.assert_array_equal(check.positions, grid)
        for exact, linear, ratio in ((check.exact_weak, check.linear_weak,
                                      1.0),
                                     (check.exact_strong,
                                      check.linear_strong, 10.0)):
            at = scenarios.with_lo_ratio(scene, ratio)
            assert np.array_equal(exact, physics.absorption_exact(
                params, at, grid))
            assert np.array_equal(linear, physics.absorption_linearized(
                params, at, grid, physics.modulation_amplitudes(params, at)))

    def test_zero_signal_scene_no_residual(self):
        # No sweep runs an LO-only scene (config rejects an lo_ratio sweep
        # without signal), whose profiles agree sample for sample: both
        # residuals read 0, and their ratio is NaN.
        profile = np.ones(3)
        check = experiments.LinearizationCheck(
            positions=np.arange(3.0), exact_weak=profile,
            linear_weak=profile, exact_strong=profile, linear_strong=profile,
            residual_weak=0.0, residual_strong=0.0, ratio_weak=1.0,
            ratio_strong=10.0)
        assert np.isnan(check.residual_ratio)

    def test_one_weak_lo_warning_per_check(self, tmp_path):
        # each regime's modulation amplitudes are evaluated once, for its
        # linear profile and its residual's normalization, so fig2's weak
        # LO (ratio 1) warns once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "--config",
                             str(ROOT / "configs" / "fig2.json"),
                             "--out", str(tmp_path)]) == 0
        assert [w.category for w in caught] == [LoDominanceWarning]

    def test_csv_row_count_matches_grid(self, base_config, tmp_path):
        grid = base_config.geometry.grid(base_config.scene.rf_wavelength)
        check = run_linearization_check(self.check_config(base_config))
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
        assert len(result.cells) == 2
        assert result.cells[0].rmse_rad > result.cells[1].rmse_rad
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
        rmse = np.array([cell.rmse_rad for cell in single.cells])
        assert np.sum(np.diff(rmse) > 0) <= 1
        # close pair at least as hard as the wide pair
        close = np.array([c.rmse_rad for c in results["close_pair"].cells])
        wide = np.array([c.rmse_rad for c in results["wide_pair"].cells])
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
        assert single.cells == tuple(cells)



@pytest.mark.parametrize("axis, kind, message", [
    ("bogus", "rmse", "^unknown sweep axis 'bogus' "),
    ("bogus", "crlb_length", "^unknown sweep axis 'bogus' "),
    ("snr_db", "sampling_demo", "^no 'sampling_demo' sweep on axis "
                                "'snr_db'$"),
], ids=["bogus-rmse", "bogus-crlb_length", "snr_db-sampling_demo"])
def test_sweep_spec_rejects_a_pair_outside_sweep_kinds(axis, kind, message):
    # built or replaced in code, a spec no runner can run never exists
    with pytest.raises(ValueError, match=message):
        SweepSpec(axis=axis, values=(1.0,), kind=kind)
    with pytest.raises(ValueError, match=message):
        replace(SweepSpec(axis="snr_db", values=(1.0,)), axis=axis,
                kind=kind)


def test_scenario_config_has_no_default_noise(base_config):
    with pytest.raises(TypeError, match="snr_db"):
        ScenarioConfig(base_config.scene, base_config.geometry,
                       base_config.prony, base_config.params)


def test_sweep_spec_rejects_an_unknown_axis_with_no_kind():
    with pytest.raises(ValueError, match="^unknown sweep axis 'bogus' "
                       r"\(allowed: lo_ratio, snr_db, cell_length, "
                       r"sampling_interval, window_width\)$"):
        SweepSpec(axis="bogus", values=(1.0,))


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
    """LO row counts of every fluorescence readout the engine makes."""
    stacks = []
    readout = sensing.simulate_measurements

    def recording(scene, geometry, params, lo_amplitudes=None):
        stacks.append(1 if lo_amplitudes is None else len(lo_amplitudes))
        return readout(scene, geometry, params, lo_amplitudes)

    monkeypatch.setattr(sensing, "simulate_measurements", recording)
    return stacks


def analytic_cells(config, overrides):
    """(overrides, clean) pairs of the engine, each cell's clean values
    the analytic vector of its scene."""
    return [(o, sensing.predicted_measurements(
        o.get("scene", config.scene), config.geometry,
        config.params).values) for o in overrides]


class TestMcSweepStacking:
    """Cells that share a prediction system run as one solve, the cells of
    an LO-ratio sweep from one fluorescence readout of its LO rows, and
    every cell keeps exactly the result of its own one-cell run."""

    def test_fluorescence_cells_share_one_solve(self, base_config,
                                                solve_rows, readout_stacks):
        ratios = (1.0, 3.0, 20.0, 50.0)
        cfg = replace(base_config, trials=1, base_seed=4,
                      sweep=SweepSpec(axis="lo_ratio", values=ratios))
        result = run_lo_ratio_sweep(cfg)
        assert solve_rows == [len(ratios)]
        assert readout_stacks == [len(ratios)]
        cells = []
        for c, ratio in enumerate(ratios):
            scene = scenarios.with_lo_ratio(cfg.scene, ratio)
            clean = sensing.simulate_measurements(scene, cfg.geometry,
                                                  cfg.params).values
            cells += experiments._mc_sweep(
                seeded_cell(cfg, c, scene=scene), [({}, clean)])
        assert len({cell.rmse_rad for cell in result.cells}) == len(ratios)
        assert result.cells == tuple(cells)

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
        assert any(0 < cell.failures < cfg.trials
                   for cell in results["close_pair"].cells)

    def test_whole_cell_failure_inside_a_stack(self, base_config,
                                               solve_rows):
        scene = base_config.scene
        silent = replace(scene, signals=tuple(
            replace(s, amplitude=0.0) for s in scene.signals))
        close = scenarios.scene_from_angles(experiments.SNR_PRESETS[
            "close_pair"], lo_angle=scene.lo.angle)
        cells = ({"scene": scene}, {"scene": silent},
                 {"scene": close, "snr_db": 35.0}, {"scene": scene})
        results = experiments._mc_sweep(
            base_config, analytic_cells(base_config, cells))
        assert solve_rows == [3 * base_config.trials]
        assert results[1] == experiments.McResult(
            rmse_rad=np.inf, failures=base_config.trials,
            trials=base_config.trials)
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
        results = experiments._mc_sweep(
            base_config, analytic_cells(base_config, cells))
        assert solve_rows == [80, 40, 150, 70]
        assert results == [mc_rmse(seeded_cell(base_config, c, **o))
                           for c, o in enumerate(cells)]

    @pytest.mark.parametrize("other", [
        lambda cfg: {"prony": replace(cfg.prony, model_order=6)},
        lambda cfg: {"scene": replace(
            cfg.scene, carrier_freq=1.1 * cfg.scene.carrier_freq)},
        lambda cfg: {"scene": replace(cfg.scene, lo=replace(
            cfg.scene.lo, angle=cfg.scene.lo.angle - 0.1))},
    ], ids=["prony", "carrier", "lo_bearing"])
    def test_only_consecutive_cells_share_a_solve(self, base_config,
                                                  solve_rows, other):
        # Cells A, B, A: the two A cells share a system but are not
        # neighbours, so each cell runs in its own solve.
        cells = ({}, other(base_config), {})
        results = experiments._mc_sweep(
            base_config, analytic_cells(base_config, cells))
        assert solve_rows == [base_config.trials] * 3
        assert results == [mc_rmse(seeded_cell(base_config, c, **o))
                           for c, o in enumerate(cells)]

    def test_no_cells_give_no_results(self, base_config, solve_rows,
                                      readout_stacks):
        assert experiments._mc_sweep(base_config, ()) == []
        assert solve_rows == []
        assert readout_stacks == []

    def test_no_sweep_values_give_empty_results(self, base_config):
        results = [run_lo_ratio_sweep(replace(
            base_config, sweep=SweepSpec("lo_ratio", ())))]
        results += run_snr_sweep(replace(
            base_config, sweep=SweepSpec("snr_db", ()))).values()
        for result in results:
            assert isinstance(result, SweepResult)
            assert (result.values, result.cells) == ((), ())

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
            assert results[name].cells == tuple(cells), name


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
        # The SNR is the bound's one noise input, and it has no default.
        scene = scenarios.scene_from_angles((15.0,))
        with pytest.raises(TypeError, match="'snr_db'"):
            experiments.crlb_std_for(scene, geometry, params)

    def test_one_weak_lo_warning_per_bound(self, params, geometry):
        # the bound's noise reference and its FIM share one evaluation of
        # the modulation amplitudes, so a weak LO warns once
        scene = scenarios.scene_from_angles((-30.0, 45.0), lo_ratio=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            experiments.bound_report(scene, geometry, params, snr_db=30.0)
        assert [w.category for w in caught] == [LoDominanceWarning]

    @staticmethod
    def length_config(base_config, values, snr_db=30.0, lo_deg=90.0,
                      **lengths_wl):
        lam = base_config.scene.rf_wavelength
        scene = scenarios.scene_from_angles((-30.0, 45.0),
                                            lo_angle=np.deg2rad(lo_deg))
        return ScenarioConfig(
            scene=scene, geometry=replace(base_config.geometry, **{
                k: v * lam for k, v in lengths_wl.items()}),
            prony=base_config.prony, params=base_config.params,
            snr_db=snr_db, trials=1, base_seed=0,
            sweep=SweepSpec(axis="cell_length", values=values))

    @staticmethod
    def cell_by_cell(config):
        """The bound of every cell on its own geometry (see
        oracles.length_cell_std), bearing by bearing and each in sweep
        order: {angle: stds}, or the first cell's error."""
        lam = config.scene.rf_wavelength
        geometries = [replace(config.geometry, cell_length=v * lam)
                      for v in config.sweep.values]
        try:
            return {angle: [length_cell_std(config, angle, g)
                            for g in geometries]
                    for angle in experiments.LENGTH_SWEEP_ANGLES_DEG}
        except RydbergDoaError as exc:
            return exc

    @pytest.mark.parametrize("values, lo_deg, lengths_wl", [
        ((1.0, 2.0, 4.0, 8.0), 90.0, {}),
        ((4.0, 1.0, 2.5, 1.0, 8.0, 2.5), 90.0, {}),
        ((3.0, 0.9, 6.0, 3.0), -40.0,
         {"window_width": 0.1, "spacing": 0.15}),
        ((12.0, 1.0, 5.5), 75.0, {"window_width": 0.3, "spacing": 0.2}),
    ], ids=["sorted", "unsorted-repeated", "narrow-windows", "wide-windows"])
    def test_every_cell_is_its_own_bound_bit_for_bit(
            self, base_config, values, lo_deg, lengths_wl):
        config = self.length_config(base_config, values, lo_deg=lo_deg,
                                    **lengths_wl)
        expected = self.cell_by_cell(config)
        results = run_length_sweep(config)
        assert list(results) == list(experiments.LENGTH_SWEEP_ANGLES_DEG)
        for angle, result in results.items():
            assert result.values == values
            assert result.crlb_std_rad == tuple(expected[angle])

    @pytest.mark.parametrize("kwargs, message", [
        ({"lo_deg": 30.0}, "sit at the LO bearing"),
        ({"lo_deg": 0.0}, "sit at the LO bearing"),
        ({"snr_db": 2900.0}, "Fisher information or its bound is not finite"),
        ({"snr_db": -3200.0}, "not finite"),
        # the 0-degree cells fail before the 30-degree scene check
        ({"lo_deg": 30.0, "snr_db": 2900.0}, "not finite"),
    ], ids=["lo-at-30", "lo-at-broadside", "fim-overflow", "schur-overflow",
            "fim-overflow-before-lo-at-30"])
    def test_error_of_the_first_failing_cell(self, base_config, kwargs,
                                             message):
        config = self.length_config(base_config, (1.0, 4.0, 2.0), **kwargs)
        expected = self.cell_by_cell(config)
        assert isinstance(expected, RydbergDoaError)
        with pytest.raises(type(expected), match=message) as caught:
            run_length_sweep(config)
        assert str(caught.value) == str(expected)

    @pytest.mark.parametrize("values, lo_deg", [
        ((0.6,), 90.0), ((4.0, 0.6, 2.0), 90.0), ((4.0, 0.6), 30.0)])
    def test_cell_with_fewer_channels_than_unknowns(self, base_config,
                                                    values, lo_deg):
        # a 0.6-wavelength cell holds 2 quarter-wave windows, fewer than
        # the 3 parameters of its target; its 0-degree cell fails first
        config = self.length_config(base_config, values, lo_deg=lo_deg)
        with pytest.raises(RydbergDoaError,
                           match="^the bound needs a channel per parameter: "
                                 "K = 2 channels for 3 parameters$"):
            run_length_sweep(config)

    def test_channel_count_tracks_length(self, rf_wavelength):
        lam = rf_wavelength
        for length_wl in (1.0, 2.0, 4.0, 8.0):
            geom = SensorGeometry(length_wl * lam, lam / 4, lam / 4)
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
            geometry=SensorGeometry(cell_wl * lam, lam / 4, lam / 4),
            prony=base_config.prony, params=base_config.params,
            snr_db=None, trials=1, base_seed=0,
            sweep=SweepSpec(axis=axis, values=values))

    def test_aliasing_case(self, base_config):
        cfg = self.demo_config(base_config, "sampling_interval", (0.25, 0.5),
                               60.0)
        result = run_sampling_demo(cfg)
        angles = result.angles_deg
        compliant, violated = result.power
        peak = angles[np.argmax(compliant)]
        assert abs(peak - 60.0) <= 1.0
        near_mirror = (angles >= -63.0) & (angles <= -57.0)
        assert violated[near_mirror].max() >= \
            0.8 * violated.max()
        # the compliant curve has no comparable mirror peak
        assert compliant[near_mirror].max() < 0.1

    def test_window_null_case(self, base_config):
        cfg = self.demo_config(base_config, "window_width", (0.25, 1.0), 0.0)
        result = run_sampling_demo(cfg)
        angles = result.angles_deg
        compliant, violated = result.power
        at_zero = np.argmin(np.abs(angles))
        assert compliant[at_zero] == pytest.approx(1.0, abs=0.05)
        assert violated[at_zero] < 0.01

    @pytest.mark.parametrize("axis", ["sampling_interval", "window_width"])
    @pytest.mark.parametrize("target_deg", [20.0, -35.0])
    def test_compliant_peak_on_the_configured_target(self, base_config, axis,
                                                     target_deg):
        cfg = self.demo_config(base_config, axis, (0.25, 0.5), target_deg)
        result = run_sampling_demo(cfg)
        compliant = result.power[0]
        assert abs(result.angles_deg[np.argmax(compliant)] - target_deg) \
            <= experiments.DEMO_ANGLE_STEP_DEG

    def test_demo_csv_schema(self, base_config, tmp_path):
        cfg = self.demo_config(base_config, "window_width", (0.25, 1.0), 0.0)
        result = run_sampling_demo(cfg)
        assert result.power.shape == (2, len(result.angles_deg))
        # every curve over the case's common max, not its own
        assert result.power.max() == 1.0
        assert result.labels == ("width_0.25wl", "width_1wl")
        path = tmp_path / "demo.csv"
        serialize.write_sampling_demo_csv(result, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["angle_deg", "power_width_0.25wl",
                          "power_width_1wl"]
