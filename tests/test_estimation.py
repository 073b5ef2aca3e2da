import dataclasses
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rydberg_doa import estimation, experiments, scenarios, sensing
from rydberg_doa.errors import (
    InsufficientSamples,
    InsufficientSignalRoots,
    RootfindingFailure,
    RydbergDoaError,
)
from rydberg_doa.estimation import (
    EstimationResult,
    PronyConfig,
    build_hankel,
    char_poly_roots,
    doa_from_frequency,
    estimate_doa,
    estimate_doa_batch,
    frequencies_from_roots,
    select_signal_roots,
    solve_lpc,
)
from rydberg_doa.sensing import MeasurementVector, SensorGeometry

from hypothesis_profiles import examples
from oracles import greedy_signal_roots


def make_geometry(k_channels, spacing=0.01, first=None):
    """k_channels windows on the pitch, the first centered at first: the
    windows are 2 * first wide, as the first sits flush with x = 0."""
    width = 2 * (spacing if first is None else first)
    return SensorGeometry(cell_length=width + spacing * (k_channels - 0.5),
                          window_width=width, spacing=spacing)


def sinusoid_samples(omegas, phis, amps, k_samples):
    n = np.arange(k_samples)
    out = np.zeros(k_samples)
    for w, p, a in zip(omegas, phis, amps):
        out = out + a * np.cos(w * n + p)
    return out


class TestBuildHankel:
    def test_four_sample_transcription(self):
        matrix, rhs = build_hankel(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(matrix, [[2.0, 1.0], [3.0, 2.0]])
        np.testing.assert_array_equal(rhs, [-3.0, -4.0])

    def test_single_row_boundary(self):
        matrix, rhs = build_hankel(np.arange(1.0, 5.0), 3)
        assert matrix.shape == (1, 3)
        np.testing.assert_array_equal(matrix, [[3.0, 2.0, 1.0]])
        np.testing.assert_array_equal(rhs, [-4.0])

    def test_diagonal_constancy(self):
        matrix, _ = build_hankel(np.arange(10.0), 4)
        rows, cols = matrix.shape
        for r in range(rows - 1):
            for m in range(cols - 1):
                assert matrix[r, m] == matrix[r + 1, m + 1]

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            build_hankel(np.arange(4.0), 4)


class TestSolveLpc:
    def test_single_sinusoid_coefficients(self):
        y = sinusoid_samples([0.5], [0.0], [1.0], 16)
        matrix, rhs = build_hankel(y, 2)
        coeffs, residual, deficient = solve_lpc(matrix, rhs)
        np.testing.assert_allclose(coeffs, [-2 * np.cos(0.5), 1.0],
                                   atol=1e-9)
        assert residual < 1e-10
        assert not deficient

    @pytest.mark.parametrize("n_tones", [1, 2, 3])
    def test_noiseless_residual_vanishes(self, n_tones):
        rng = np.random.default_rng(n_tones)
        omegas = np.sort(rng.uniform(0.3, 2.8, n_tones))
        y = sinusoid_samples(omegas, rng.uniform(-np.pi, np.pi, n_tones),
                             rng.uniform(0.5, 2.0, n_tones), 24)
        matrix, rhs = build_hankel(y, 2 * n_tones)
        _, residual, _ = solve_lpc(matrix, rhs)
        assert residual < 1e-10

    def test_zero_data_minimum_norm(self):
        matrix, rhs = build_hankel(np.zeros(12), 4)
        coeffs, residual, deficient = solve_lpc(matrix, rhs)
        np.testing.assert_array_equal(coeffs, 0.0)
        assert residual == 0.0
        assert deficient


class TestCharPolyRoots:
    def test_conjugate_pair_on_unit_circle(self):
        roots, _ = char_poly_roots(np.array([-2 * np.cos(0.5), 1.0]))
        expected = np.array([np.exp(0.5j), np.exp(-0.5j)])
        got = roots[np.argsort(roots.imag)][::-1]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_zero_coefficients_give_origin_roots(self):
        np.testing.assert_array_equal(char_poly_roots(np.zeros(2))[0], 0.0)

    @given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    def test_vieta_product(self, coeffs):
        coeffs = np.asarray(coeffs)
        roots, _ = char_poly_roots(coeffs)
        product = np.prod(roots) if len(roots) else 1.0
        expected = (-1) ** len(coeffs) * coeffs[-1]
        assert abs(product - expected) <= 1e-8 * max(
            1.0, np.abs(coeffs).max())

    # Repeated roots: (z-1)^4, (z+0.5)^3 and a double unit-circle pair.
    @example(coeffs=list(np.poly([1.0] * 4)[1:]))
    @example(coeffs=list(np.poly([-0.5] * 3)[1:]))
    @example(coeffs=list(np.poly(np.exp([1j, 1j, -1j, -1j])).real[1:]))
    @given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
    def test_residual_far_inside_gate(self, coeffs):
        # The batch kernel fails a row above ROOT_RESIDUAL_TOL * max(1, |a|);
        # companion eigenvalues, used as computed, must sit far inside it.
        coeffs = np.asarray(coeffs)
        gate = estimation.ROOT_RESIDUAL_TOL * max(1.0, np.abs(coeffs).max())
        assert char_poly_roots(coeffs)[1] <= 1e-3 * gate


def prediction_stack(rows, order, seed):
    """A (rows, K - p, p) stack of noisy two-tone prediction systems, K =
    2p + 8, with the data of row 0 zeroed when there are other rows: that
    row takes the SVD rule, and at p = 2 and 4 the companion roots."""
    rng = np.random.default_rng(seed)
    n = np.arange(2 * order + 8)
    y = (np.cos(np.outer(rng.uniform(0.3, 1.4, rows), n))
         + np.cos(np.outer(rng.uniform(1.6, 2.8, rows), n) + 1.0)
         + 0.1 * rng.normal(size=(rows, len(n))))
    if rows > 1:
        y[0] = 0.0
    return build_hankel(y, order)


def transposed(a):
    """The values of a in the reverse memory order, as a view."""
    return np.ascontiguousarray(a.T).T


def assert_same_roots(got, want):
    """got matches want as a multiset, each within 1e-12 * max(1, |z|)."""
    want = list(want)
    assert len(got) == len(want)
    for z in got:
        j = int(np.argmin(np.abs(np.asarray(want) - z)))
        assert abs(want.pop(j) - z) <= 1e-12 * max(1.0, abs(z)), (got, z)


def stage_outputs_equal(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestStackedKernels:
    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("rows", [1, 2, 7, 300])
    def test_every_row_equals_the_row_alone(self, rows, order):
        matrix, rhs = prediction_stack(rows, order, seed=10 * rows + order)
        lpc = solve_lpc(matrix, rhs)
        stage_outputs_equal(solve_lpc(transposed(matrix), transposed(rhs)),
                            lpc)
        roots = char_poly_roots(lpc[0])
        stage_outputs_equal(char_poly_roots(transposed(lpc[0])), roots)
        for t in range(rows):
            stage_outputs_equal(solve_lpc(matrix[t], rhs[t]),
                                [out[t] for out in lpc])
            stage_outputs_equal(char_poly_roots(lpc[0][t]),
                                [out[t] for out in roots])

    def test_deficient_rows_take_the_svd_rule(self):
        rng = np.random.default_rng(5)
        good = rng.normal(size=(3, 16))
        one_tone = sinusoid_samples([0.9], [0.3], [1.0], 16)
        values = np.stack([good[0], np.zeros(16), good[1], one_tone, good[2]])
        matrix, rhs = build_hankel(values, 4)
        twin = matrix[0].copy()
        twin[:, 1] = twin[:, 0]
        matrix = np.concatenate([matrix, twin[None]])
        rhs = np.concatenate([rhs, rhs[:1]])
        coeffs, residual, deficient = solve_lpc(matrix, rhs)
        np.testing.assert_array_equal(deficient, [0, 1, 0, 1, 0, 1])
        # The helper takes the rows as the copy a gather makes.
        svd = estimation._svd_lpc(matrix[[1, 3, 5]], rhs[[1, 3, 5]])
        stage_outputs_equal((coeffs[1::2], residual[1::2], deficient[1::2]),
                            svd)
        svd = estimation._svd_lpc(matrix[::2], rhs[::2])
        np.testing.assert_allclose(coeffs[::2], svd[0], rtol=1e-10)
        np.testing.assert_allclose(residual[::2], svd[1], rtol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 8),
           extra=st.integers(0, 20))
    @settings(max_examples=examples(40), deadline=None)
    def test_certified_rows_are_full_rank(self, seed, order, extra):
        # Eight systems with condition numbers from 1e2 to 1e16.
        rng = np.random.default_rng(seed)
        conds = 10.0 ** rng.uniform(2, 16, 8)
        basis = np.linalg.qr(rng.normal(size=(8, order + extra, order)))[0]
        turn = np.linalg.qr(rng.normal(size=(8, order, order)))[0]
        scales = np.exp(-np.log(conds)[:, None]
                        * np.linspace(0, 1, order))[:, None, :]
        matrix = (basis * scales) @ turn
        rhs = rng.normal(size=(8, order + extra))
        with mock.patch.object(estimation, "_svd_lpc",
                               wraps=estimation._svd_lpc) as svd:
            solve_lpc(matrix, rhs)
        redone = svd.call_args[0][0] if svd.called else matrix[:0]
        for t in range(8):
            if not (redone == matrix[t]).all(axis=(1, 2)).any():
                assert not estimation._svd_lpc(matrix[t], rhs[t])[2]

    @pytest.mark.parametrize("roots", [
        [0.5, -2.0], [1.0, 1.0], [0.0, 0.0], np.exp([0.7j, -0.7j]),
        [1e-3, 1e3], [-1e-4, 3e4],
        [0.3, -0.7, 1.2, 2.5], [1.0] * 4, np.exp([1j, 1j, -1j, -1j]),
        [0.0] * 4, [1e-3, -2.0, 50.0, 1e3], [1e-2, 1e2, 3j, -3j],
        [0.5, 20.0, 0.9 * np.exp(1j), 0.9 * np.exp(-1j)],
        0.98 * np.exp([0.5j, -0.5j, 0.6j, -0.6j])])
    def test_closed_forms_match_np_roots(self, roots):
        coeffs = np.poly(roots).real[1:]
        assert_same_roots(char_poly_roots(coeffs)[0],
                          np.roots(np.r_[1.0, coeffs]))

    def test_failed_certificate_takes_companion_roots(self, monkeypatch):
        coeffs = np.array([np.poly(r).real[1:] for r in (
            np.exp([0.4j, -0.4j, 2j, -2j]), [0.5, -0.5, 0.9j, -0.9j],
            np.exp([1j, -1j, 3j, -3j]))])
        want = char_poly_roots(coeffs)
        closed = estimation._closed_form_roots

        def off_in_lane_1(lanes):
            roots = closed(lanes)
            roots[0, 1] += 1e-9
            return roots

        monkeypatch.setattr(estimation, "_closed_form_roots", off_in_lane_1)
        got = char_poly_roots(coeffs)
        assert got[0][1].tobytes() == estimation._companion_roots(
            coeffs[1:2])[0].tobytes()
        for t in (0, 2):
            stage_outputs_equal([out[t] for out in got],
                                [out[t] for out in want])

    def test_noisy_presets_take_no_fallback(self, params, geometry,
                                            monkeypatch):
        def refuse(*args):
            raise AssertionError("fallback taken")
        monkeypatch.setattr(estimation, "_svd_lpc", refuse)
        monkeypatch.setattr(estimation, "_companion_roots", refuse)
        for angles in experiments.SNR_PRESETS.values():
            scene = scenarios.scene_from_angles(angles)
            clean = sensing.predicted_measurements(scene, geometry, params)
            for snr in (0.0, 20.0, 40.0, 150.0):
                stack = sensing.add_noise(clean, snr, range(100))
                coeffs = solve_lpc(*build_hankel(stack.values,
                                                 2 * len(angles)))[0]
                char_poly_roots(coeffs)


class TestSelectSignalRoots:
    def test_ranked_by_circle_distance(self):
        roots = np.array([0.99 * np.exp(0.5j), 0.99 * np.exp(-0.5j),
                          0.3, -0.2])
        reps, found = select_signal_roots(roots, 1, delta=0.2)
        assert reps[0] == pytest.approx(0.99 * np.exp(0.5j))
        assert found == 1

    def test_conjugate_symmetric_input(self):
        roots = np.array([np.exp(1.0j), np.exp(-1.0j),
                          np.exp(2.0j), np.exp(-2.0j)])
        reps, _ = select_signal_roots(roots, 2, delta=0.1)
        assert len(reps) == 2
        assert np.all(reps.imag > 0)

    def test_insufficient_pairs(self):
        roots = np.array([0.99 * np.exp(0.7j), 0.99 * np.exp(-0.7j),
                          0.4, 0.1])
        reps, found = select_signal_roots(roots, 2, delta=0.2)
        assert found < 2
        assert reps.shape == (2,)
        assert np.isnan(reps).all()

    def test_dc_guard_rejects_near_real_roots(self):
        roots = np.array([np.exp(0.01j), np.exp(-0.01j),
                          0.97 * np.exp(1.2j), 0.97 * np.exp(-1.2j)])
        reps, _ = select_signal_roots(roots, 1, delta=0.2, angle_floor=0.1)
        assert abs(np.angle(reps[0])) == pytest.approx(1.2)

    def test_nyquist_edge_real_negative_root(self):
        roots = np.array([-0.995, 0.5, 0.2, 0.1])
        reps, _ = select_signal_roots(roots, 1, delta=0.2)
        assert reps[0] == pytest.approx(-0.995)

    def test_tie_break_prefers_angular_separation(self):
        # both candidate pairs sit exactly on the circle; after taking the
        # 1.0-rad pair, the farther 2.5-rad pair wins over the 1.1-rad one
        roots = np.array([np.exp(1.0j), np.exp(-1.0j),
                          np.exp(1.1j), np.exp(-1.1j),
                          np.exp(2.5j), np.exp(-2.5j)])
        reps, _ = select_signal_roots(roots, 2, delta=0.2)
        got = np.sort(np.abs(np.angle(reps)))
        np.testing.assert_allclose(got, [1.0, 2.5])

    def test_tie_window_is_inclusive(self):
        # |z| - 1 is exact on these real roots: 1.0 for -2 and, for the
        # first root, exactly the rounded 1.0 + 1e-12 that bounds the tie
        # window. Inside the window the lower index wins.
        edge = 1.0 + 1e-12
        roots = np.array([-(1.0 + edge), -2.0])
        assert np.abs(roots[0]) - 1.0 == edge
        reps, _ = select_signal_roots(roots, 1, delta=1.5)
        assert reps[0] == roots[0]
        reps, _ = select_signal_roots(roots[::-1], 1, delta=1.5)
        assert reps[0] == -2.0

    def test_equal_separation_takes_lowest_index(self):
        # -1.25 and -0.75 tie on circle distance (0.25) and on separation
        # (both at |arg z| = pi): the lower index wins at every step.
        roots = np.array([-1.25, -0.75, np.exp(0.5j), -1.25, -0.75])
        reps, _ = select_signal_roots(roots, 2, delta=0.3)
        np.testing.assert_array_equal(reps, [np.exp(0.5j), -1.25])
        reps, _ = select_signal_roots(roots[::-1], 2, delta=0.3)
        np.testing.assert_array_equal(reps, [np.exp(0.5j), -0.75])


@st.composite
def tied_root_stacks(draw):
    """A (T, p) root stack built to tie: exact unit-circle roots, shared
    radii and angles, real negative roots at mirrored distances, and
    random roots, with or without conjugate closure; plus one target
    count for the stack, which some rows may not be able to give."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 60))
    order = draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    shape = (rows, order)
    angles = rng.choice([0.05, 0.3, 0.7, 1.0, 1.5, 2.0, 2.5, np.pi - 0.1],
                        shape) * rng.choice([-1.0, 1.0], shape)
    radii = rng.choice([0.75, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25], shape)
    kind = rng.integers(0, 5, shape)
    roots = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [np.exp(1j * angles), radii * np.exp(1j * angles), -radii + 0j,
         rng.normal(size=shape) + 1j * rng.normal(size=shape)],
        radii + 0j)
    half = order // 2
    closed = rng.random(rows) < 0.5
    roots[closed, half:2 * half] = np.conj(roots[closed, :half])
    n_targets = int(rng.integers(0, half + 2))
    delta = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]))
    angle_floor = draw(st.sampled_from([0.0, 0.1, 0.3]))
    return roots, n_targets, delta, angle_floor


class TestSelectionMatchesGreedy:
    @given(case=tied_root_stacks())
    @settings(max_examples=examples(60), deadline=None)
    def test_stage_equals_serial_greedy(self, case):
        roots, n_targets, delta, angle_floor = case
        reps, found = select_signal_roots(roots, n_targets, delta,
                                          angle_floor)
        assert reps.shape == (len(roots), n_targets)
        for t, row in enumerate(roots):
            want, want_found = greedy_signal_roots(
                row, n_targets, delta, angle_floor)
            assert found[t] == want_found
            assert reps[t].tobytes() == want.tobytes()


class TestFrequencyMaps:
    def test_angle_to_frequency(self):
        got = frequencies_from_roots(np.array([np.exp(0.5j)]), 0.01)
        assert got[0] == pytest.approx(50.0)

    def test_nyquist_edge(self):
        got = frequencies_from_roots(np.array([-1.0 + 0j]), 0.01)
        assert got[0] == pytest.approx(np.pi / 0.01)

    def test_doa_at_lo_wavenumber(self):
        k = 42.0
        theta, clamped = doa_from_frequency(k, k, np.pi / 2)
        assert theta == pytest.approx(0.0)
        assert not clamped

    def test_doa_at_45_degrees(self):
        k = 42.0
        dk = k * (1 - np.sin(np.deg2rad(45.0)))
        theta, _ = doa_from_frequency(dk, k, np.pi / 2)
        assert theta == pytest.approx(np.deg2rad(45.0), abs=1e-12)

    def test_doa_boundary_exact(self):
        k = 42.0
        theta, clamped = doa_from_frequency(2 * k, k, np.pi / 2)
        assert theta == pytest.approx(-np.pi / 2)
        assert not clamped

    def test_doa_clamps_out_of_range(self):
        k = 42.0
        theta, clamped = doa_from_frequency(2.1 * k, k, np.pi / 2)
        assert theta == pytest.approx(-np.pi / 2)
        assert clamped


def measurement_from_samples(values, spacing=0.01, first=None):
    geom = make_geometry(len(values), spacing=spacing, first=first)
    return MeasurementVector(values=np.asarray(values, dtype=float),
                             geometry=geom)


class TestEstimateDoa:
    def test_noiseless_two_target_exact(self, params, two_target, geometry):
        mv = sensing.predicted_measurements(two_target, geometry, params)
        cfg = PronyConfig(model_order=4, target_count=2)
        result = estimate_doa(mv, (two_target.wavenumber,
                                   two_target.lo.angle), cfg)
        truth = scenarios.true_doas(two_target)
        assert np.max(np.abs(np.sort(result.doas) - truth)) < 1e-6
        assert not result.clamped_flags.any()

    def test_noisy_rmse_below_one_degree(self, params, two_target, geometry):
        mv = sensing.predicted_measurements(two_target, geometry, params)
        cfg = PronyConfig(model_order=4, target_count=2)
        truth = scenarios.true_doas(two_target)
        errors = []
        for seed in range(100):
            noisy = sensing.add_noise(mv, 30.0, seed)
            result = estimate_doa(noisy, (two_target.wavenumber,
                                          two_target.lo.angle), cfg)
            errors.extend(np.abs(np.sort(result.doas) - truth))
        rmse = np.sqrt(np.mean(np.square(errors)))
        assert np.isfinite(rmse)
        assert rmse < np.deg2rad(1.0)

    def test_single_target_benign(self, params, geometry):
        scene = scenarios.scene_from_angles((15.0,))
        mv = sensing.predicted_measurements(scene, geometry, params)
        cfg = PronyConfig(model_order=2, target_count=1)
        result = estimate_doa(mv, (scene.wavenumber, scene.lo.angle), cfg)
        assert result.doas[0] == pytest.approx(np.deg2rad(15.0), abs=1e-9)
        assert not result.clamped_flags[0]

    @pytest.mark.parametrize("scale", [1e-140, 1e-158, 1e-200])
    def test_tiny_measurement_matches_unscaled(self, params, two_target,
                                               geometry, scale):
        # Squares of samples near 1e-158 are subnormal, so Gram-Schmidt
        # loses digits there; such a row must still be solved in full.
        clean = sensing.predicted_measurements(two_target, geometry, params)
        values = sensing.add_noise(clean, 30.0, 1).values
        unit = MeasurementVector(values=values / np.abs(values).max(),
                                 geometry=geometry)
        tiny = MeasurementVector(values=unit.values * scale,
                                 geometry=geometry)
        meta = (two_target.wavenumber, two_target.lo.angle)
        cfg = PronyConfig(model_order=4, target_count=2)
        want, got = estimate_doa(unit, meta, cfg), estimate_doa(tiny, meta,
                                                                cfg)
        np.testing.assert_allclose(got.lpc_coefficients,
                                   want.lpc_coefficients, rtol=1e-12)
        np.testing.assert_allclose(got.doas, want.doas, rtol=1e-12)
        assert got.lpc_residual_norm == pytest.approx(
            want.lpc_residual_norm * scale, rel=1e-12)

    def test_order_exceeding_samples(self, params, two_target, geometry):
        mv = sensing.predicted_measurements(two_target, geometry, params)
        cfg = PronyConfig(model_order=16, target_count=2)
        with pytest.raises(InsufficientSamples):
            estimate_doa(mv, (two_target.wavenumber, two_target.lo.angle),
                         cfg)

    def test_target_at_lo_angle_surfaces_cleanly(self, params, geometry):
        # zero beat frequency: the target is invisible after calibration
        scene = scenarios.scene_from_angles((90.0,))
        mv = sensing.predicted_measurements(scene, geometry, params)
        cfg = PronyConfig(model_order=2, target_count=1)
        with pytest.raises(InsufficientSignalRoots):
            estimate_doa(mv, (scene.wavenumber, scene.lo.angle), cfg)


# The failure codes each exception class of reference_doas stands for.
REFERENCE_CODES = {
    RootfindingFailure: (estimation.NOT_FINITE, estimation.ROOT_RESIDUAL),
    InsufficientSignalRoots: (estimation.TOO_FEW_ROOTS,),
}


def reference_doas(values, spacing, scene_meta, cfg):
    """Serial Prony estimate through np.linalg.lstsq, np.roots, an
    np.polyval residual gate and the one-at-a-time greedy root selection,
    the textbook path the batched stages replace."""
    wavenumber, lo_angle = scene_meta
    p, k = cfg.model_order, len(values)
    idx = p + np.arange(k - p)[:, None] - (1 + np.arange(p))[None, :]
    coeffs = np.linalg.lstsq(values[idx], -values[p:], rcond=None)[0]
    monic = np.concatenate(([1.0], coeffs))
    roots = np.roots(monic)
    residual = np.abs(np.polyval(monic, roots)) / (1 + np.abs(roots) ** p)
    if residual.max() > estimation.ROOT_RESIDUAL_TOL * max(
            1.0, np.abs(coeffs).max()):
        raise RootfindingFailure("reference root residual")
    reps, found = greedy_signal_roots(
        roots, cfg.target_count, cfg.unit_circle_tolerance,
        2 * np.pi * estimation.DC_GUARD_CYCLES / k)
    if found < cfg.target_count:
        raise InsufficientSignalRoots("reference root count")
    freqs = np.sort(np.abs(np.angle(reps)) / spacing)
    return np.arcsin(np.clip(np.sin(lo_angle) - freqs / wavenumber,
                             -1.0, 1.0))


class TestBatchKernel:
    def test_matches_textbook_reference(self, params, geometry):
        outcomes = set()
        for angles in experiments.SNR_PRESETS.values():
            scene = scenarios.scene_from_angles(angles)
            meta = (scene.wavenumber, scene.lo.angle)
            n = len(angles)
            cfg = PronyConfig(model_order=2 * n, target_count=n)
            clean = sensing.predicted_measurements(scene, geometry, params)
            for snr in range(10, 55, 10):
                stack = sensing.add_noise(clean, float(snr), range(50))
                batch = estimate_doa_batch(stack, meta, cfg)
                for t, values in enumerate(stack.values):
                    try:
                        want = reference_doas(values, geometry.spacing,
                                              meta, cfg)
                    except RydbergDoaError as exc:
                        assert batch.failure[t] in REFERENCE_CODES[type(exc)]
                        with pytest.raises(type(exc)):
                            batch.row(t)
                        outcomes.add(type(exc))
                        continue
                    assert batch.failure[t] == estimation.OK
                    np.testing.assert_allclose(batch.doas[t], want,
                                               rtol=0, atol=1e-9)
                    outcomes.add(None)
        assert {None, InsufficientSignalRoots} <= outcomes

    def test_failed_matches_errors(self, params, geometry, monkeypatch):
        scene = scenarios.scene_from_angles(experiments.SNR_PRESETS[
            "close_pair"])
        meta = (scene.wavenumber, scene.lo.angle)
        cfg = PronyConfig(model_order=4, target_count=2)
        clean = sensing.predicted_measurements(scene, geometry, params)
        stack = sensing.add_noise(clean, 20.0, range(200))
        coeffs = solve_lpc(*build_hankel(stack.values, 4))[0]
        ratio = char_poly_roots(coeffs)[1] / np.maximum(
            1.0, np.abs(coeffs).max(axis=-1))
        # A gate at the median residual fails about half the rows on it.
        tol = float(np.median(ratio))
        monkeypatch.setattr(estimation, "ROOT_RESIDUAL_TOL", tol)
        batch = estimate_doa_batch(stack, meta, cfg)
        assert batch.failure.dtype == np.int8
        assert batch.failed.dtype == bool
        np.testing.assert_array_equal(batch.failed,
                                      batch.failure != estimation.OK)
        np.testing.assert_array_equal(
            batch.failure == estimation.ROOT_RESIDUAL, ratio > tol)
        np.testing.assert_array_equal(batch.root_residual,
                                      char_poly_roots(coeffs)[1])
        assert np.isnan(batch.doas[batch.failed]).all()
        assert np.isfinite(batch.doas[~batch.failed]).all()
        assert set(batch.failure.tolist()) == {
            estimation.OK, estimation.ROOT_RESIDUAL, estimation.TOO_FEW_ROOTS}
        for t in np.flatnonzero(batch.failure == estimation.ROOT_RESIDUAL)[:5]:
            with pytest.raises(RootfindingFailure) as info:
                batch.row(t)
            text = re.fullmatch(r"root residual (\d\.\d{3}e[+-]\d{2}) above "
                                r"tolerance", str(info.value))
            assert text is not None, str(info.value)
            assert float(text[1]) == pytest.approx(batch.root_residual[t],
                                                   rel=5e-4)
        for t in np.flatnonzero(batch.failure == estimation.TOO_FEW_ROOTS)[:5]:
            with pytest.raises(InsufficientSignalRoots, match=(
                    f"^found {batch.usable_pairs[t]} usable root pairs, "
                    "need 2$")):
                batch.row(t)

    def test_overflowing_row_fails_alone(self, params, geometry):
        scene = scenarios.scene_from_angles((20.0,))
        meta = (scene.wavenumber, scene.lo.angle)
        cfg = PronyConfig(model_order=2, target_count=1)
        clean = sensing.predicted_measurements(scene, geometry, params)
        good = clean.values / np.abs(clean.values).max()
        stack = MeasurementVector(values=np.stack([good * 1e308, good]),
                                  geometry=geometry)
        with np.errstate(all="ignore"):
            batch = estimate_doa_batch(stack, meta, cfg)
        assert not np.isfinite(batch.lpc_coefficients[0]).all()
        np.testing.assert_array_equal(
            batch.failure, [estimation.NOT_FINITE, estimation.OK])
        with pytest.raises(RootfindingFailure,
                           match="^prediction coefficients are not finite$"):
            batch.row(0)
        np.testing.assert_array_equal(batch.failed, [True, False])
        assert np.isnan(batch.doas[0]).all()
        alone = estimate_doa(MeasurementVector(values=good,
                                               geometry=geometry), meta, cfg)
        np.testing.assert_array_equal(batch.row(1).doas, alone.doas)
        np.testing.assert_array_equal(batch.row(1).roots, alone.roots)

    def test_short_row_records_insufficient_roots(self, params, geometry):
        # zero beat frequency: the target's pair sits inside the DC guard
        scene = scenarios.scene_from_angles((90.0,))
        clean = sensing.predicted_measurements(scene, geometry, params)
        batch = estimate_doa_batch(
            clean, (scene.wavenumber, scene.lo.angle),
            PronyConfig(model_order=2, target_count=1))
        np.testing.assert_array_equal(batch.failure,
                                      [estimation.TOO_FEW_ROOTS])
        np.testing.assert_array_equal(batch.usable_pairs, [0])
        with pytest.raises(InsufficientSignalRoots,
                           match="^found 0 usable root pairs, need 1$"):
            batch.row(0)
        assert np.isnan(batch.roots[0]).all()

    def test_row_is_the_stack_row_of_every_field(self, params, two_target,
                                                 geometry):
        clean = sensing.predicted_measurements(two_target, geometry, params)
        meta = (two_target.wavenumber, two_target.lo.angle)
        cfg = PronyConfig(model_order=4, target_count=2)
        batch = estimate_doa_batch(sensing.add_noise(clean, 30.0, range(4)),
                                   meta, cfg)
        assert batch.doas.shape == (4, 2) and batch.failure.shape == (4,)
        for t in range(4):
            one = batch.row(t)
            assert isinstance(one, EstimationResult)
            for field in dataclasses.fields(EstimationResult):
                got = getattr(one, field.name)
                assert not got.flags.writeable
                np.testing.assert_array_equal(
                    got, getattr(batch, field.name)[t])
            assert not one.failed
        alone = estimate_doa(sensing.add_noise(clean, 30.0, 2), meta, cfg)
        assert alone.doas.shape == (2,) and alone.failure.shape == ()
        np.testing.assert_array_equal(alone.doas, batch.doas[2])

    def test_each_stage_runs_once_per_batch(self, params, two_target,
                                            geometry, monkeypatch):
        # The per-layer tracer wraps these module bindings; each stage is
        # one call over the whole stack, whatever its row count.
        calls = {}
        for name in ("build_hankel", "solve_lpc", "char_poly_roots",
                     "select_signal_roots"):
            def counting(*args, _fn=getattr(estimation, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(estimation, name, counting)
        clean = sensing.predicted_measurements(two_target, geometry, params)
        meta = (two_target.wavenumber, two_target.lo.angle)
        cfg = PronyConfig(model_order=4, target_count=2)
        for rows in (1, 64):
            calls.clear()
            estimate_doa_batch(sensing.add_noise(clean, 30.0, range(rows)),
                               meta, cfg)
            assert calls == dict.fromkeys(calls, 1) and len(calls) == 4

    def test_estimate_doa_rejects_a_stack(self, params, two_target,
                                          geometry):
        clean = sensing.predicted_measurements(two_target, geometry, params)
        stack = sensing.add_noise(clean, 30.0, range(1, 3))
        with pytest.raises(ValueError):
            estimate_doa(stack, (two_target.wavenumber, two_target.lo.angle),
                         PronyConfig(model_order=4, target_count=2))


@st.composite
def sinusoid_scenarios(draw):
    n = draw(st.integers(1, 4))
    k_samples = draw(st.integers(4 * n, 40))
    # tones separated by at least ~0.37 rad/sample and inside the band,
    # keeping the minimal K=4N systems well conditioned
    slots = np.linspace(0.2, np.pi - 0.1, 8)
    picks = draw(st.sets(st.integers(0, 7), min_size=n, max_size=n))
    omegas = slots[sorted(picks)]
    phis = [draw(st.floats(-np.pi, np.pi)) for _ in range(n)]
    amps = [draw(st.floats(0.1, 10.0)) for _ in range(n)]
    return omegas, phis, amps, k_samples


class TestProperties:
    @given(case=sinusoid_scenarios())
    @settings(max_examples=examples(40))
    def test_noiseless_exactness(self, case):
        omegas, phis, amps, k_samples = case
        n = len(omegas)
        spacing = 0.01
        y = sinusoid_samples(omegas, phis, amps, k_samples)
        mv = measurement_from_samples(y, spacing=spacing)
        cfg = PronyConfig(model_order=2 * n, target_count=n,
                          unit_circle_tolerance=0.5)
        matrix, rhs = build_hankel(mv.values, cfg.model_order)
        coeffs, _, _ = solve_lpc(matrix, rhs)
        roots, _ = char_poly_roots(coeffs)
        reps, _ = select_signal_roots(roots, n, cfg.unit_circle_tolerance)
        got = np.sort(frequencies_from_roots(reps, spacing))
        expected = np.sort(np.asarray(omegas)) / spacing
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    @pytest.mark.xfail(strict=True, reason=(
        "ill-conditioned square prediction system: the weakest tone is "
        "about 1.08e-8 relative off (ROADMAP item 4)"))
    def test_noiseless_exactness_square_system(self):
        # A draw sinusoid_scenarios allows: K = 16 samples for p = 8, so the
        # prediction system is square and the 0.125 tone is swamped by the 9.
        omegas = np.linspace(0.2, np.pi - 0.1, 8)[:4]
        spacing = 0.01
        y = sinusoid_samples(omegas, (0, 0, 0, 1), (0.125, 1, 1, 9), 16)
        mv = measurement_from_samples(y, spacing=spacing)
        matrix, rhs = build_hankel(mv.values, 8)
        coeffs, _, _ = solve_lpc(matrix, rhs)
        roots, _ = char_poly_roots(coeffs)
        reps, _ = select_signal_roots(roots, 4, 0.5)
        got = np.sort(frequencies_from_roots(reps, spacing))
        np.testing.assert_allclose(got, omegas / spacing, rtol=1e-8)

    def test_shift_invariance(self):
        y = sinusoid_samples([0.7, 1.9], [0.2, -1.0], [1.0, 0.8], 20)
        freqs = []
        for first in (0.01, 0.05, 0.123):
            mv = measurement_from_samples(y, spacing=0.01, first=first)
            cfg = PronyConfig(model_order=4, target_count=2)
            result = estimate_doa(mv, (500.0, np.pi / 2), cfg)
            freqs.append(np.sort(result.spatial_frequencies))
        np.testing.assert_allclose(freqs[1], freqs[0], rtol=1e-10)
        np.testing.assert_allclose(freqs[2], freqs[0], rtol=1e-10)

    @given(scale=st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=examples(30))
    def test_amplitude_scale_invariance(self, scale):
        y = sinusoid_samples([0.7, 1.9], [0.2, -1.0], [1.0, 0.8], 20)
        cfg = PronyConfig(model_order=4, target_count=2)
        base = estimate_doa(measurement_from_samples(y), (500.0, np.pi / 2),
                            cfg)
        scaled = estimate_doa(measurement_from_samples(scale * y),
                              (500.0, np.pi / 2), cfg)
        np.testing.assert_allclose(scaled.spatial_frequencies,
                                   base.spatial_frequencies, rtol=1e-9)
        np.testing.assert_allclose(scaled.doas, base.doas, rtol=1e-9)

    def test_conjugate_closure_of_root_set(self):
        y = sinusoid_samples([0.7, 1.9], [0.2, -1.0], [1.0, 0.8], 20)
        y = y + np.random.default_rng(0).normal(0, 0.05, len(y))
        matrix, rhs = build_hankel(y, 6)
        coeffs, _, _ = solve_lpc(matrix, rhs)
        roots, _ = char_poly_roots(coeffs)
        conj_sorted = np.sort_complex(np.conj(roots))
        np.testing.assert_allclose(np.sort_complex(roots), conj_sorted,
                                   atol=1e-12)

    def test_runtime_scales_at_most_quadratically(self):
        k_samples = 256
        rng = np.random.default_rng(1)
        y = sinusoid_samples([0.5, 1.1, 2.2], [0.1, 0.4, -0.9],
                             [1.0, 1.0, 1.0], k_samples)
        y = y + rng.normal(0, 0.01, k_samples)

        def best_time(order):
            runs = []
            for _ in range(15):
                start = time.perf_counter()
                matrix, rhs = build_hankel(y, order)
                coeffs, _, _ = solve_lpc(matrix, rhs)
                char_poly_roots(coeffs)
                runs.append(time.perf_counter() - start)
            return min(runs)

        base = best_time(4)
        for order in (8, 16, 32):
            assert best_time(order) <= 3.0 * (order / 4) ** 2 * base
