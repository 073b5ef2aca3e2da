import numpy as np
import pytest

from rydberg_doa import crlb, physics, scenarios, sensing
from rydberg_doa.crlb import (
    FimInputs,
    angle_crlb,
    crlb_report,
    effective_fim,
    fisher_information,
    mean_jacobian,
)
from rydberg_doa.errors import EndFireSingularity, SingularNuisanceBlock
from rydberg_doa.sensing import window_integrals

from oracles import (
    fisher_information_blocks,
    fisher_information_scipy,
    window_integrals_quadrature,
)


def random_inputs(n_targets, geometry, seed=0, sigma=1.0):
    # well-separated frequencies so the FIM stays sanely conditioned
    rng = np.random.default_rng(seed)
    k = 2 * np.pi / (geometry.cell_length / 4)
    slots = np.linspace(0.2, 1.8, 6) * k
    dks = np.sort(rng.choice(slots, n_targets, replace=False))
    dks = dks * rng.uniform(0.97, 1.03, n_targets)
    return FimInputs(
        geometry=geometry,
        delta_ks=dks,
        delta_phis=rng.uniform(-np.pi, np.pi, n_targets),
        amplitudes=rng.uniform(0.5, 2.0, n_targets),
        sigma2=sigma**2)


class TestWindowIntegrals:
    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_matches_quadrature(self, geometry, seed):
        rng = np.random.default_rng(seed)
        dk = rng.uniform(0.05, 2.0) * 2 * np.pi / geometry.cell_length * 4
        dphi = rng.uniform(-np.pi, np.pi)
        closed = window_integrals(geometry, dk, dphi)
        quad = window_integrals_quadrature(geometry, dk, dphi)
        for c_vec, q_vec in zip(closed, quad):
            scale = np.abs(q_vec).max()
            np.testing.assert_allclose(c_vec, q_vec, atol=1e-8 * scale,
                                       rtol=1e-8)

    def test_phase_flip_negates_cos_sin(self, geometry):
        dk, dphi = 30.0, 0.7
        c0, s0, _ = window_integrals(geometry, dk, dphi)
        c1, s1, _ = window_integrals(geometry, dk, dphi + np.pi)
        np.testing.assert_allclose(c1, -c0, rtol=1e-12)
        np.testing.assert_allclose(s1, -s0, rtol=1e-12)

    def test_dc_limit(self, geometry):
        c_vec, s_vec, _ = window_integrals(geometry, 0.0, 0.0)
        np.testing.assert_allclose(c_vec, geometry.window_width, rtol=1e-12)
        np.testing.assert_allclose(s_vec, 0.0, atol=1e-15)

    def test_small_dk_continuity(self, geometry):
        tiny = window_integrals(geometry, 1e-10, 0.3)
        small = window_integrals(geometry, 1e-4, 0.3)
        for t_vec, s_vec in zip(tiny, small):
            np.testing.assert_allclose(t_vec, s_vec, rtol=1e-3)


class TestMeanJacobian:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, geometry, seed):
        inputs = random_inputs(1 + seed % 3, geometry, seed=seed)
        jac = mean_jacobian(inputs)

        def mean_vector(dks, dphis, amps):
            return sensing.sinusoid_measurements(geometry, dks, dphis, amps)

        n = inputs.n_targets
        for i in range(n):
            for block, arg_index, step in (
                    (0, 0, 1e-6 * inputs.delta_ks[i]),
                    (n, 1, 1e-6),
                    (2 * n, 2, 1e-6 * inputs.amplitudes[i])):
                args_hi = [inputs.delta_ks.copy(), inputs.delta_phis.copy(),
                           inputs.amplitudes.copy()]
                args_lo = [a.copy() for a in args_hi]
                args_hi[arg_index][i] += step
                args_lo[arg_index][i] -= step
                fd = (mean_vector(*args_hi) - mean_vector(*args_lo)) \
                    / (2 * step)
                col = jac[:, block + i]
                np.testing.assert_allclose(
                    col, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    def test_amplitude_scaling_structure(self, geometry):
        base = random_inputs(2, geometry, seed=5)
        scaled = FimInputs(geometry=geometry, delta_ks=base.delta_ks,
                           delta_phis=base.delta_phis,
                           amplitudes=2 * base.amplitudes,
                           sigma2=base.sigma2)
        jac0, jac1 = mean_jacobian(base), mean_jacobian(scaled)
        n = base.n_targets
        np.testing.assert_allclose(jac1[:, :n], 2 * jac0[:, :n], rtol=1e-12)
        np.testing.assert_allclose(jac1[:, n:2 * n], 2 * jac0[:, n:2 * n],
                                   rtol=1e-12)
        np.testing.assert_allclose(jac1[:, 2 * n:], jac0[:, 2 * n:],
                                   rtol=1e-12)

    def test_no_targets_empty(self, geometry):
        inputs = FimInputs(geometry=geometry, delta_ks=[], delta_phis=[],
                           amplitudes=[])
        assert mean_jacobian(inputs).shape == (geometry.channel_count, 0)


class TestFisherInformation:
    def test_white_noise_reduces_to_gram(self, geometry):
        inputs = random_inputs(2, geometry, seed=1, sigma=0.3)
        jac = mean_jacobian(inputs)
        fim = fisher_information(jac, inputs.sigma2)
        np.testing.assert_allclose(fim, jac.T @ jac / 0.3**2, rtol=1e-10)

    @pytest.mark.parametrize("sigma", [1.0, 0.3, 2.5e-3])
    def test_white_noise_equals_scipy_cholesky_exactly(self, geometry,
                                                         sigma):
        inputs = random_inputs(3, geometry, seed=5, sigma=sigma)
        jac = mean_jacobian(inputs)
        np.testing.assert_array_equal(
            fisher_information(jac, inputs.sigma2),
            fisher_information_scipy(
                jac, inputs.sigma2 * np.eye(geometry.channel_count)))

    def test_block_assembly_agrees(self, geometry):
        inputs = random_inputs(3, geometry, seed=2)
        fim = fisher_information(mean_jacobian(inputs), inputs.sigma2)
        blocks = fisher_information_blocks(inputs)
        np.testing.assert_allclose(fim, blocks, rtol=1e-10,
                                   atol=1e-12 * np.abs(fim).max())

    def test_quarter_scaling_with_doubled_sigma(self, geometry):
        inputs = random_inputs(1, geometry, seed=4, sigma=1.0)
        doubled = FimInputs(geometry=geometry, delta_ks=inputs.delta_ks,
                            delta_phis=inputs.delta_phis,
                            amplitudes=inputs.amplitudes, sigma2=4.0)
        jac = mean_jacobian(inputs)
        np.testing.assert_allclose(
            fisher_information(jac, doubled.sigma2),
            fisher_information(jac, inputs.sigma2) / 4, rtol=1e-12)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_noise_variance_must_be_positive_and_finite(self, geometry,
                                                        sigma2):
        with pytest.raises(ValueError, match="positive and finite"):
            FimInputs(geometry=geometry, delta_ks=[1.0], delta_phis=[0.0],
                      amplitudes=[1.0], sigma2=sigma2)

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_symmetric_positive_semidefinite(self, geometry, n_targets):
        inputs = random_inputs(n_targets, geometry, seed=n_targets)
        fim = fisher_information(mean_jacobian(inputs), inputs.sigma2)
        np.testing.assert_allclose(fim, fim.T, rtol=1e-12)
        eigs = np.linalg.eigvalsh(fim)
        assert eigs.min() >= -1e-10 * np.trace(fim)


class TestEffectiveFim:
    def test_block_diagonal_passthrough(self):
        fim = np.diag([4.0, 3.0, 2.0, 1.0, 5.0, 6.0])
        np.testing.assert_array_equal(effective_fim(fim, 2),
                                      np.diag([4.0, 3.0]))

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_schur_matches_full_inverse(self, geometry, n_targets):
        inputs = random_inputs(n_targets, geometry, seed=10 + n_targets)
        fim = fisher_information(mean_jacobian(inputs), inputs.sigma2)
        eff = effective_fim(fim, n_targets)
        via_inverse = np.linalg.inv(
            np.linalg.inv(fim)[:n_targets, :n_targets])
        np.testing.assert_allclose(eff, via_inverse, rtol=1e-8)

    def test_information_loss_is_psd(self, geometry):
        inputs = random_inputs(2, geometry, seed=8)
        fim = fisher_information(mean_jacobian(inputs), inputs.sigma2)
        loss = fim[:2, :2] - effective_fim(fim, 2)
        assert np.linalg.eigvalsh(loss).min() >= -1e-10 * np.trace(fim)

    def test_singular_nuisance_block(self):
        fim = np.zeros((3, 3))
        fim[0, 0] = 1.0
        with pytest.raises(SingularNuisanceBlock):
            effective_fim(fim, 1)


class TestAngleBound:
    def test_single_target_closed_form(self, geometry):
        inputs = random_inputs(1, geometry, seed=6, sigma=0.2)
        fim = fisher_information(mean_jacobian(inputs), inputs.sigma2)
        eff = effective_fim(fim, 1)
        theta = np.deg2rad(25.0)
        k = 42.5
        bound, stds = angle_crlb(eff, [theta], k)
        closed = 1.0 / (k**2 * np.cos(theta)**2) / eff[0, 0]
        assert bound[0, 0] == pytest.approx(closed, rel=1e-10)
        assert stds[0] == pytest.approx(np.sqrt(closed), rel=1e-10)

    def test_broadside_minimizes_geometric_factor(self):
        eff = np.array([[2.5]])
        k = 10.0
        stds = [angle_crlb(eff, [t], k)[1][0]
                for t in np.deg2rad([0.0, 20.0, 45.0, 70.0])]
        assert all(np.diff(stds) > 0)

    def test_wavelength_squared_scaling(self):
        eff = np.array([[2.5]])
        _, std1 = angle_crlb(eff, [0.3], 10.0)
        _, std2 = angle_crlb(eff, [0.3], 20.0)
        assert std1[0] == pytest.approx(2 * std2[0], rel=1e-12)

    def test_end_fire_guard(self):
        with pytest.raises(EndFireSingularity):
            angle_crlb(np.array([[1.0]]), [np.pi / 2], 10.0)


class TestReportAndConditioning:
    def test_report_shapes(self, geometry):
        inputs = random_inputs(2, geometry, seed=11)
        report = crlb_report(inputs, np.deg2rad([10.0, -20.0]), 42.5)
        assert report.fim.shape == (6, 6)
        assert report.effective_fim_dk.shape == (2, 2)
        assert report.crlb_theta.shape == (2, 2)
        assert np.all(np.diag(report.crlb_theta) > 0)
        assert np.all(report.per_target_std > 0)

    def test_close_targets_degrade_conditioning(self, params, geometry,
                                                rf_wavelength):
        # symmetric pair closing below the resolution limit; the coupling
        # term dominates the conditioning in this regime
        k = 2 * np.pi / rf_wavelength
        conds = []
        for sep_deg in (5.0, 4.0, 3.0, 2.0, 1.0):
            scene = scenarios.scene_from_angles((-sep_deg / 2, sep_deg / 2))
            inputs = FimInputs(
                geometry=geometry, delta_ks=scene.delta_ks,
                delta_phis=scene.delta_phis,
                amplitudes=physics.modulation_amplitudes(params, scene))
            report = crlb_report(
                inputs, [s.angle for s in scene.signals], k)
            conds.append(report.condition_number)
        assert all(np.diff(conds) > 0)

    def test_light_monte_carlo_tracks_bound(self, params, geometry):
        # 100-trial version of the estimator-efficiency check
        from rydberg_doa.estimation import PronyConfig, estimate_doa
        scene = scenarios.scene_from_angles((15.0,))
        mv = sensing.predicted_measurements(scene, geometry, params)
        snr_db = 40.0
        sigma2 = sensing.signal_power(mv.values) / 10 ** (snr_db / 10)
        inputs = FimInputs(
            geometry=geometry, delta_ks=scene.delta_ks,
            delta_phis=scene.delta_phis,
            amplitudes=physics.modulation_amplitudes(params, scene),
            sigma2=sigma2)
        report = crlb_report(inputs, [scene.signals[0].angle],
                             scene.wavenumber)
        cfg = PronyConfig(model_order=2, target_count=1)
        errors = []
        for seed in range(100):
            noisy = sensing.add_noise(mv, snr_db, seed)
            result = estimate_doa(noisy, (scene.wavenumber, scene.lo.angle),
                                  cfg)
            errors.append(result.doas[0] - scene.signals[0].angle)
        rmse = np.sqrt(np.mean(np.square(errors)))
        assert 0.9 <= rmse / report.per_target_std[0] <= 3.0
