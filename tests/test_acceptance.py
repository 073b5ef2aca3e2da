"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its runtime. Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion report.
"""

import time

import numpy as np
import pytest

from rydberg_doa import physics, scenarios, sensing
from rydberg_doa.crlb import (
    FimInputs,
    angle_crlb,
    crlb_report,
    effective_fim,
    fisher_information,
    mean_jacobian,
)
from rydberg_doa.estimation import (
    PronyConfig,
    build_hankel,
    char_poly_roots,
    estimate_doa,
    solve_lpc,
)
from rydberg_doa.experiments import (
    ScenarioConfig,
    SweepSpec,
    crlb_std_for,
    mc_rmse,
    run_length_sweep,
    run_linearization_check,
    run_lo_ratio_sweep,
    run_sampling_demo,
    run_snr_sweep,
)
from rydberg_doa.sensing import window_integrals

from oracles import (
    integrated_power_transmission,
    monotonic_length_bound,
    window_integrals_quadrature,
)


class Criterion:
    """Times a criterion body and prints one report line."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} {verdict} ({elapsed:.2f}s / "
              f"budget {self.budget_s:.0f}s): {self.description}")
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its runtime budget")
        return False


@pytest.fixture(scope="module")
def setup(params):
    scene = scenarios.two_target_scene()
    geometry = scenarios.default_geometry(scene.rf_wavelength)
    return params, scene, geometry


def test_criterion_1_noiseless_exactness(setup):
    params, scene, geometry = setup
    with Criterion(1, "noiseless two-target recovery within 1e-6 rad", 1.0):
        mv = sensing.predicted_measurements(scene, geometry, params)
        cfg = PronyConfig(model_order=4, target_count=2)
        result = estimate_doa(mv, (scene.wavenumber, scene.lo.angle), cfg)
        truth = scenarios.true_doas(scene)
        err = np.max(np.abs(np.sort(result.doas) - truth))
        assert err < 1e-6, f"max DoA error {err:.3e} rad"


def test_criterion_2_linearization_scaling(setup):
    params, scene, geometry = setup
    with Criterion(2, "weak/strong LO residual ratio in [4, 30]", 10.0):
        grid = geometry.grid(scene.rf_wavelength)
        check = run_linearization_check(
            params, scenarios.with_lo_ratio(scene, 1.0),
            scenarios.with_lo_ratio(scene, 10.0), grid)
        assert 4.0 <= check.residual_ratio <= 30.0, (
            f"residual ratio {check.residual_ratio:.2f}")


def test_criterion_3_lo_ratio_sweep(setup):
    params, scene, geometry = setup
    with Criterion(3, "LO sweep: 10x drop by ratio 20 and a floor", 180.0):
        config = ScenarioConfig(
            scene=scene, geometry=geometry,
            prony=PronyConfig(model_order=4, target_count=2),
            params=params, snr_db=30.0, trials=100, base_seed=0,
            sweep=SweepSpec(axis="lo_ratio",
                            values=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)))
        result = run_lo_ratio_sweep(config)
        rmse = dict(zip(result.values, result.rmse_rad))
        fails = dict(zip(result.values, result.failures))
        assert rmse[20.0] <= rmse[1.0] / 10.0, (
            f"ratio-1 {np.rad2deg(rmse[1.0]):.3f} deg vs ratio-20 "
            f"{np.rad2deg(rmse[20.0]):.3f} deg")
        assert abs(rmse[20.0] - rmse[50.0]) <= 0.5 * rmse[50.0], (
            "no floor: ratio-20/50 disagree beyond 50%")
        for ratio in (10.0, 20.0, 50.0):
            assert fails[ratio] <= 5, (
                f"failure rate {fails[ratio]}% at compliant ratio {ratio}")


def test_criterion_4_crlb_tracking(setup):
    params, scene, geometry = setup
    with Criterion(4, "single-target RMSE tracks the CRLB; close pair "
                      "harder than wide pair", 300.0):
        single = scenarios.scene_from_angles((15.0,))
        cell = ScenarioConfig(
            scene=single, geometry=geometry,
            prony=PronyConfig(model_order=2, target_count=1),
            params=params, snr_db=40.0, trials=500, base_seed=42)
        result = mc_rmse(cell)
        bound = crlb_std_for(single, geometry, params, snr_db=40.0)[0]
        ratio = result.rmse_rad / bound
        assert 0.9 <= ratio <= 3.0, f"RMSE/sqrt(CRLB) = {ratio:.3f}"
        assert result.failures <= 25, "failure rate above 5%"

        sweep_cfg = ScenarioConfig(
            scene=scene, geometry=geometry,
            prony=PronyConfig(model_order=4, target_count=2),
            params=params, snr_db=None, trials=100, base_seed=0,
            sweep=SweepSpec(axis="snr_db",
                            values=(20.0, 25.0, 30.0, 35.0, 40.0, 45.0,
                                    50.0)))
        results = run_snr_sweep(sweep_cfg)
        close = np.array(results["close_pair"].rmse_rad)
        wide = np.array(results["wide_pair"].rmse_rad)
        assert np.all(close >= wide), "close pair easier than wide pair"
        single_rmse = np.array(results["single_15"].rmse_rad)
        single_bound = np.array(results["single_15"].crlb_std_rad)
        assert np.all(single_rmse >= 0.7 * single_bound), (
            "estimator beat the bound: broken noise scaling")


def test_criterion_5_aperture_monotonicity(setup):
    params, scene, geometry = setup
    with Criterion(5, "bound decreases with cell length; end-fire-ward "
                      "bearings are worse", 30.0):
        config = ScenarioConfig(
            scene=scene, geometry=geometry,
            prony=PronyConfig(model_order=2, target_count=1),
            params=params, snr_db=30.0, trials=1, base_seed=0,
            sweep=SweepSpec(axis="cell_length", values=(1.0, 2.0, 4.0, 8.0)))
        results = run_length_sweep(config)
        for angle in (0.0, 30.0, 60.0):
            bounds = np.array(results[angle].crlb_std_rad)
            assert np.all(np.diff(bounds) < 0), (
                f"bound not strictly decreasing at {angle} deg")
        sixty = np.array(results[60.0].crlb_std_rad)
        broadside = np.array(results[0.0].crlb_std_rad)
        assert np.all(sixty > broadside), "60 deg bound not above 0 deg"


def test_criterion_6_sampling_demos(setup):
    params, scene, geometry = setup
    with Criterion(6, "half-wave pitch aliases to -60 deg; full-wave "
                      "window blinds 0 deg", 30.0):
        lam = scene.rf_wavelength
        demo_geom = scenarios.default_geometry(lam, cell_wavelengths=16.0)
        alias_cfg = ScenarioConfig(
            scene=scenarios.scene_from_angles((60.0,)), geometry=demo_geom,
            prony=PronyConfig(model_order=2, target_count=1),
            params=params, snr_db=None, trials=1, base_seed=0,
            sweep=SweepSpec(axis="sampling_interval", values=(0.25, 0.5)))
        alias = run_sampling_demo(alias_cfg)
        angles = alias.angles_deg
        violated = alias.curves[1].power
        near_mirror = (angles >= -63.0) & (angles <= -57.0)
        assert violated[near_mirror].max() >= 0.8 * violated.max(), (
            "no spurious peak near -60 deg")
        compliant = alias.curves[0].power
        peak = angles[np.argmax(compliant)]
        assert abs(peak - 60.0) <= 1.0, f"compliant peak at {peak} deg"

        null_cfg = ScenarioConfig(
            scene=scenarios.scene_from_angles((0.0,)), geometry=demo_geom,
            prony=PronyConfig(model_order=2, target_count=1),
            params=params, snr_db=None, trials=1, base_seed=0,
            sweep=SweepSpec(axis="window_width", values=(0.25, 1.0)))
        null_demo = run_sampling_demo(null_cfg)
        at_zero = np.argmin(np.abs(null_demo.angles_deg))
        assert null_demo.curves[1].power[at_zero] < 0.01, (
            "full-wave window did not suppress the broadside target")


def test_criterion_7_integrated_power(setup):
    params, scene, _ = setup
    with Criterion(7, "integrated-power response monotone only below the "
                      "length bound", 5.0):
        lam = scene.rf_wavelength
        bound = monotonic_length_bound(lam)
        assert abs(bound - 0.358 * lam) < 1e-3 * lam, (
            f"bound {bound:.6f} m vs 0.358 lambda")
        thetas = np.deg2rad(np.arange(-90.0, 90.25, 0.25))
        for length_wl, expect_monotone in ((0.3, True), (0.5, False)):
            values = []
            for theta in thetas:
                probe = physics.RfScene(
                    lo=physics.PlaneWave(1.4e-2, 0.0, np.pi / 2),
                    signals=(physics.PlaneWave(1.4e-3, 0.0, theta),),
                    carrier_freq=scene.carrier_freq)
                values.append(integrated_power_transmission(
                    probe, params, length_wl * lam))
            diffs = np.diff(values)
            monotone = bool(np.all(diffs < 0) or np.all(diffs > 0))
            assert monotone == expect_monotone, (
                f"L = {length_wl} lambda: monotone={monotone}")


def test_criterion_8_numerical_integrity(setup):
    params, scene, geometry = setup
    with Criterion(8, "derivative, Schur, quadrature, closed-form, and "
                      "rootfinding identities", 30.0):
        rng = np.random.default_rng(123)
        # window integrals: closed forms vs quadrature
        for _ in range(5):
            dk = rng.uniform(0.1, 2.0) * scene.wavenumber
            dphi = rng.uniform(-np.pi, np.pi)
            closed = window_integrals(geometry, dk, dphi)
            quad = window_integrals_quadrature(geometry, dk, dphi)
            for c_vec, q_vec in zip(closed, quad):
                scale = max(np.abs(q_vec).max(), 1e-30)
                assert np.max(np.abs(c_vec - q_vec)) < 1e-8 * scale

        # Jacobian columns vs central finite differences
        inputs = FimInputs(
            geometry=geometry, delta_ks=scene.delta_ks,
            delta_phis=scene.delta_phis,
            amplitudes=physics.modulation_amplitudes(params, scene))
        jac = mean_jacobian(inputs)
        n = inputs.n_targets

        def mean_vec(dks, dphis, amps):
            return sensing.sinusoid_measurements(geometry, dks, dphis, amps)

        for i in range(n):
            for block, idx, step in ((0, 0, 1e-6 * inputs.delta_ks[i]),
                                     (n, 1, 1e-6),
                                     (2 * n, 2, 1e-6 * abs(
                                         inputs.amplitudes[i]))):
                hi = [inputs.delta_ks.copy(), inputs.delta_phis.copy(),
                      inputs.amplitudes.copy()]
                lo = [a.copy() for a in hi]
                hi[idx][i] += step
                lo[idx][i] -= step
                fd = (mean_vec(*hi) - mean_vec(*lo)) / (2 * step)
                col = jac[:, block + i]
                scale = max(np.abs(fd).max(), 1e-30)
                assert np.max(np.abs(col - fd)) < 1e-6 * scale

        # Schur complement vs inverse-of-inverse
        fim = fisher_information(jac, inputs.sigma2)
        eff = effective_fim(fim, n)
        via_inverse = np.linalg.inv(np.linalg.inv(fim)[:n, :n])
        assert np.max(np.abs(eff - via_inverse)) < 1e-8 * np.abs(eff).max()

        # single-target matrix bound vs the closed form
        single = scenarios.scene_from_angles((15.0,))
        report = crlb_report(
            FimInputs(geometry=geometry, delta_ks=single.delta_ks,
                      delta_phis=single.delta_phis,
                      amplitudes=physics.modulation_amplitudes(params,
                                                               single)),
            [single.signals[0].angle], single.wavenumber)
        theta = single.signals[0].angle
        closed = np.sqrt(
            1.0 / (single.wavenumber**2 * np.cos(theta)**2)
            / report.effective_fim_dk[0, 0])
        assert abs(report.per_target_std[0] - closed) < 1e-10 * closed

        # characteristic polynomial root residuals
        mv = sensing.predicted_measurements(scene, geometry, params)
        noisy = sensing.add_noise(mv, 30.0, 9)
        matrix, rhs = build_hankel(noisy.values, 4)
        coeffs, _, _ = solve_lpc(matrix, rhs)
        roots, _ = char_poly_roots(coeffs)
        monic = np.concatenate(([1.0], coeffs))
        residuals = np.abs(np.polyval(monic, roots)) / (
            1.0 + np.abs(roots) ** len(coeffs))
        assert residuals.max() < 1e-8
