import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydberg_doa import crlb, physics, scenarios, sensing
from rydberg_doa.config import load_config
from rydberg_doa.crlb import (
    angle_crlb,
    crlb_report,
    crlb_report_batch,
    effective_fim,
    fisher_information,
)
from rydberg_doa.errors import (
    EndFireSingularity,
    RydbergDoaError,
    SingularNuisanceBlock,
)
from oracles import (
    fisher_information_blocks,
    fisher_information_by_channel,
    fisher_information_scipy,
    window_integrals_quadrature,
)


FIG4 = Path(__file__).resolve().parent.parent / "configs" / "fig4.json"
FIG3C = FIG4.with_name("fig3c.json")


def random_targets(n_targets, geometry, seed=0):
    """(delta_ks, delta_phis, amplitudes) of n_targets random targets."""
    # well-separated frequencies so the FIM stays sanely conditioned
    rng = np.random.default_rng(seed)
    k = 2 * np.pi / (geometry.cell_length / 4)
    slots = np.linspace(0.2, 1.8, 6) * k
    dks = np.sort(rng.choice(slots, n_targets, replace=False))
    dks = dks * rng.uniform(0.97, 1.03, n_targets)
    return (dks, rng.uniform(-np.pi, np.pi, n_targets),
            rng.uniform(0.5, 2.0, n_targets))


def jacobian(geometry, delta_ks, delta_phis, amplitudes):
    """The analytic model's Jacobian."""
    return sensing.analytic_model(geometry, delta_ks, delta_phis,
                                  amplitudes)[1]


def unit_columns(geometry, dk, dphi):
    """Window integrals of cos(dk*x - dphi), sin(dk*x - dphi) and
    -x*sin(dk*x - dphi): a unit-amplitude target's amplitude, phase and
    frequency columns."""
    jac = jacobian(geometry, [dk], [dphi], [1.0])
    return jac[:, 2], jac[:, 1], jac[:, 0]


def scene_jacobian(params, geometry, scene):
    return jacobian(geometry, scene.delta_ks, scene.delta_phis,
                    physics.modulation_amplitudes(params, scene))


class TestWindowIntegrals:
    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_matches_quadrature(self, geometry, seed):
        rng = np.random.default_rng(seed)
        dk = rng.uniform(0.05, 2.0) * 2 * np.pi / geometry.cell_length * 4
        dphi = rng.uniform(-np.pi, np.pi)
        closed = unit_columns(geometry, dk, dphi)
        quad = window_integrals_quadrature(geometry, dk, dphi)
        for c_vec, q_vec in zip(closed, quad):
            scale = np.abs(q_vec).max()
            np.testing.assert_allclose(c_vec, q_vec, atol=1e-8 * scale,
                                       rtol=1e-8)

    def test_phase_flip_negates_cos_sin(self, geometry):
        dk, dphi = 30.0, 0.7
        c0, s0, _ = unit_columns(geometry, dk, dphi)
        c1, s1, _ = unit_columns(geometry, dk, dphi + np.pi)
        np.testing.assert_allclose(c1, -c0, rtol=1e-12)
        np.testing.assert_allclose(s1, -s0, rtol=1e-12)

    def test_dc_limit(self, geometry):
        c_vec, s_vec, _ = unit_columns(geometry, 0.0, 0.0)
        np.testing.assert_allclose(c_vec, geometry.window_width, rtol=1e-12)
        np.testing.assert_allclose(s_vec, 0.0, atol=1e-15)

    def test_small_dk_continuity(self, geometry):
        tiny = unit_columns(geometry, 1e-10, 0.3)
        small = unit_columns(geometry, 1e-4, 0.3)
        for t_vec, s_vec in zip(tiny, small):
            np.testing.assert_allclose(t_vec, s_vec, rtol=1e-3)


class TestMeanJacobian:
    """The contract of sensing.analytic_model, values and the Jacobian of
    the mean vector, on N = 1-3 targets and both branches of the window
    kernel."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, geometry, seed):
        # Every column against central differences of the model's own
        # values, and every row of a (5,) or (2, 3) stack equal to its
        # one-row call bit for bit.
        n = 1 + seed % 3
        lead = TestRowContract.LEADS[seed % 2]
        targets = parameter_rows(geometry, lead, n, seed=seed)
        # the first row's first target takes the kernel's series branch
        targets[0][(0,) * len(lead) + (0,)] = 0.018 / geometry.window_width
        kernel_args = np.abs(targets[0] * geometry.window_width / 2)
        assert (kernel_args < 0.03).any() and (kernel_args > 0.03).any()
        values, jac = sensing.analytic_model(geometry, *targets)
        assert values.shape == lead + (geometry.channel_count,)
        assert jac.shape == lead + (geometry.channel_count, 3 * n)
        for row in np.ndindex(lead):
            one_values, one_jac = sensing.analytic_model(
                geometry, *(a[row] for a in targets))
            np.testing.assert_array_equal(values[row], one_values)
            np.testing.assert_array_equal(jac[row], one_jac)
        dks, _, amps = targets
        for i in range(n):
            for block, arg_index, step in (
                    (0, 0, 1e-6 * dks[..., i]),
                    (n, 1, 1e-6),
                    (2 * n, 2, 1e-6 * amps[..., i])):
                args_hi = [a.copy() for a in targets]
                args_lo = [a.copy() for a in targets]
                args_hi[arg_index][..., i] += step
                args_lo[arg_index][..., i] -= step
                fd = (sensing.analytic_model(geometry, *args_hi)[0]
                      - sensing.analytic_model(geometry, *args_lo)[0]) \
                    / (2 * np.asarray(step)[..., None])
                for row in np.ndindex(lead):
                    np.testing.assert_allclose(
                        jac[row][:, block + i], fd[row], rtol=1e-6,
                        atol=1e-6 * np.abs(fd[row]).max())

    def test_amplitude_scaling_structure(self, geometry):
        dks, dphis, amps = random_targets(2, geometry, seed=5)
        jac0 = jacobian(geometry, dks, dphis, amps)
        jac1 = jacobian(geometry, dks, dphis, 2 * amps)
        n = len(dks)
        np.testing.assert_allclose(jac1[:, :n], 2 * jac0[:, :n], rtol=1e-12)
        np.testing.assert_allclose(jac1[:, n:2 * n], 2 * jac0[:, n:2 * n],
                                   rtol=1e-12)
        np.testing.assert_allclose(jac1[:, 2 * n:], jac0[:, 2 * n:],
                                   rtol=1e-12)

    def test_no_targets_empty(self, geometry):
        values, jac = sensing.analytic_model(geometry, [], [], [])
        np.testing.assert_array_equal(values,
                                      np.zeros(geometry.channel_count))
        assert jac.shape == (geometry.channel_count, 0)


class TestFisherInformation:
    def test_white_noise_reduces_to_gram(self, geometry):
        jac = jacobian(geometry, *random_targets(2, geometry, seed=1))
        fim = fisher_information(jac, 0.3**2)
        np.testing.assert_allclose(fim, jac.T @ jac / 0.3**2, rtol=1e-10)

    @pytest.mark.parametrize("sigma", [1.0, 0.3, 2.5e-3])
    def test_white_noise_equals_scipy_cholesky_exactly(self, geometry,
                                                         sigma):
        # Bit-equal to the channel-order running sum; scipy's Cholesky
        # route goes through a BLAS product, so it agrees to rounding only.
        jac = jacobian(geometry, *random_targets(3, geometry, seed=5))
        fim = fisher_information(jac, sigma**2)
        np.testing.assert_array_equal(
            fim, fisher_information_by_channel(jac, sigma**2))
        np.testing.assert_allclose(
            fim, fisher_information_scipy(
                jac, sigma**2 * np.eye(geometry.channel_count)),
            rtol=0, atol=1e-14 * np.abs(fim).max())

    def test_any_jacobian_layout_sums_in_channel_order(self):
        # numpy sums a contiguous axis 0 pairwise, so an F-ordered
        # Jacobian would move the FIM's last digits
        sc = load_config(FIG3C).scenario
        jac = scene_jacobian(sc.params, sc.geometry, sc.scene)
        sigma2 = sensing.noise_variance(sensing.predicted_measurements(
            sc.scene, sc.geometry, sc.params).values, sc.snr_db)
        assert np.array_equal(
            fisher_information(np.asfortranarray(jac), sigma2),
            fisher_information(jac, sigma2))

    def test_block_assembly_agrees(self, geometry):
        targets = random_targets(3, geometry, seed=2)
        fim = fisher_information(jacobian(geometry, *targets), 1.0)
        blocks = fisher_information_blocks(geometry, *targets, 1.0)
        np.testing.assert_allclose(fim, blocks, rtol=1e-10,
                                   atol=1e-12 * np.abs(fim).max())

    def test_quarter_scaling_with_doubled_sigma(self, geometry):
        jac = jacobian(geometry, *random_targets(1, geometry, seed=4))
        np.testing.assert_allclose(
            fisher_information(jac, 4.0),
            fisher_information(jac, 1.0) / 4, rtol=1e-12)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_noise_variance_must_be_positive_and_finite(self, geometry,
                                                        sigma2):
        jac = jacobian(geometry, [1.0], [0.0], [1.0])
        with pytest.raises(RydbergDoaError, match="positive and finite"):
            crlb_report(jac, sigma2, [0.3], 10.0)

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_symmetric_positive_semidefinite(self, geometry, n_targets):
        jac = jacobian(geometry, *random_targets(
            n_targets, geometry, seed=n_targets))
        fim = fisher_information(jac, 1.0)
        np.testing.assert_array_equal(fim, fim.T)
        eigs = np.linalg.eigvalsh(fim)
        assert eigs.min() >= -1e-10 * np.trace(fim)


class TestEffectiveFim:
    def test_block_diagonal_passthrough(self):
        fim = np.diag([4.0, 3.0, 2.0, 1.0, 5.0, 6.0])
        np.testing.assert_array_equal(effective_fim(fim, 2),
                                      np.diag([4.0, 3.0]))

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_schur_matches_full_inverse(self, geometry, n_targets):
        jac = jacobian(geometry, *random_targets(
            n_targets, geometry, seed=10 + n_targets))
        fim = fisher_information(jac, 1.0)
        eff = effective_fim(fim, n_targets)
        via_inverse = np.linalg.inv(
            np.linalg.inv(fim)[:n_targets, :n_targets])
        np.testing.assert_allclose(eff, via_inverse, rtol=1e-8)
        np.testing.assert_array_equal(eff, eff.T)

    def test_information_loss_is_psd(self, geometry):
        jac = jacobian(geometry, *random_targets(2, geometry, seed=8))
        fim = fisher_information(jac, 1.0)
        loss = fim[:2, :2] - effective_fim(fim, 2)
        assert np.linalg.eigvalsh(loss).min() >= -1e-10 * np.trace(fim)

    def test_singular_nuisance_block(self):
        fim = np.zeros((3, 3))
        fim[0, 0] = 1.0
        with pytest.raises(SingularNuisanceBlock):
            effective_fim(fim, 1)


class TestAngleBound:
    def test_single_target_closed_form(self, geometry):
        jac = jacobian(geometry, *random_targets(1, geometry, seed=6))
        fim = fisher_information(jac, 0.2**2)
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
        jac = jacobian(geometry, *random_targets(2, geometry, seed=11))
        report = crlb_report(jac, 1.0, np.deg2rad([10.0, -20.0]), 42.5)
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
            report = crlb_report(
                scene_jacobian(params, geometry, scene), 1.0,
                [s.angle for s in scene.signals], k)
            conds.append(report.condition_number)
        assert all(np.diff(conds) > 0)

    def test_light_monte_carlo_tracks_bound(self, params, geometry):
        # 100-trial version of the estimator-efficiency check
        from rydberg_doa.estimation import PronyConfig, estimate_doa
        scene = scenarios.scene_from_angles((15.0,))
        mv = sensing.predicted_measurements(scene, geometry, params)
        snr_db = 40.0
        sigma2 = np.var(mv.values) / 10 ** (snr_db / 10)
        report = crlb_report(scene_jacobian(params, geometry, scene),
                             sigma2, [scene.signals[0].angle],
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


class TestNuisanceColumns:
    """crlb_report bounds any Jacobian whose columns after the targets'
    frequencies are nuisances: here a DC offset appended to fig4's
    single-target Jacobian at 35 dB."""

    @staticmethod
    def reports(angle_deg):
        sc = load_config(FIG4).scenario
        geometry = sc.geometry
        scene = scenarios.scene_from_angles((angle_deg,))
        amps = physics.modulation_amplitudes(sc.params, scene)
        values, jac = sensing.analytic_model(geometry, scene.delta_ks,
                                             scene.delta_phis, amps)
        sigma2 = sensing.noise_variance(values, 35.0)
        offset = np.full(geometry.channel_count, geometry.window_width)
        thetas = [scene.signals[0].angle]
        return (crlb_report(jac, sigma2, thetas, scene.wavenumber),
                crlb_report(np.column_stack([jac, offset]), sigma2, thetas,
                            scene.wavenumber))

    @pytest.mark.parametrize("angle_deg", [15.0, 60.0])
    def test_offset_is_marginalized_by_the_schur_complement(self,
                                                            angle_deg):
        plain, with_offset = self.reports(angle_deg)
        assert with_offset.fim.shape == (4, 4)
        assert with_offset.per_target_std[0] >= plain.per_target_std[0]
        np.testing.assert_allclose(
            with_offset.effective_fim_dk,
            np.linalg.inv(np.linalg.inv(with_offset.fim)[:1, :1]),
            rtol=1e-8)

    @pytest.mark.parametrize("angle_deg, least_ratio",
                             [(70.0, 8.0), (80.0, 150.0)])
    def test_offset_dominates_the_bound_near_end_fire(self, angle_deg,
                                                      least_ratio):
        # the beat frequency slows toward the LO and its windowed cosine
        # approaches the constant column
        plain, with_offset = self.reports(angle_deg)
        assert (with_offset.per_target_std[0] / plain.per_target_std[0]
                >= least_ratio)


def parameter_rows(geometry, lead, n_targets, seed):
    """(dks, dphis, amps) of shape lead + (n_targets,): every row holds
    well-separated targets, and about one in three rows swaps its first
    target for one slow enough (|dk * w / 2| < 0.03) to take the window
    kernel's series branch."""
    rng = np.random.default_rng(seed)
    rows = [random_targets(n_targets, geometry, seed=int(s))
            for s in rng.integers(0, 2**31, int(np.prod(lead, dtype=int)))]
    dks, dphis, amps = (np.reshape([row[j] for row in rows],
                                   lead + (n_targets,)) for j in range(3))
    slow = rng.random(lead) < 1 / 3
    dks[..., 0] = np.where(slow, rng.uniform(0.1, 0.5, lead) * 0.06
                           / geometry.window_width, dks[..., 0])
    return dks, dphis, amps


class TestRowContract:
    """Each row of a stack of parameter rows equals its one-row call bit
    for bit: the Jacobian and every field of crlb_report_batch."""

    LEADS = [(5,), (2, 3)]

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_crlb_report_batch_rows(self, geometry, lead, n_targets):
        rng = np.random.default_rng(10 + n_targets)
        jac = jacobian(geometry, *parameter_rows(
            geometry, lead, n_targets, seed=20 + n_targets))
        sigma2 = rng.uniform(0.5, 2.0, lead)
        thetas = rng.uniform(-1.4, 1.4, lead + (n_targets,))
        batch = crlb_report_batch(jac, sigma2, thetas, 42.5)
        p = 3 * n_targets
        assert batch.fim.shape == lead + (p, p)
        assert batch.effective_fim_dk.shape == lead + (n_targets,) * 2
        assert batch.crlb_theta.shape == lead + (n_targets,) * 2
        assert batch.per_target_std.shape == lead + (n_targets,)
        assert batch.condition_number.shape == lead
        for row in np.ndindex(lead):
            one = crlb_report(jac[row], float(sigma2[row]), thetas[row],
                              42.5)
            for name in ("fim", "effective_fim_dk", "crlb_theta",
                         "per_target_std"):
                np.testing.assert_array_equal(getattr(batch, name)[row],
                                              getattr(one, name), name)
            assert type(one.condition_number) is float
            assert batch.condition_number[row] == one.condition_number

    def test_stages_take_leading_axes(self, geometry):
        # fisher_information, effective_fim and angle_crlb row by row
        dks, dphis, amps = parameter_rows(geometry, (2, 3), 2, seed=3)
        jac = jacobian(geometry, dks, dphis, amps)
        fim = fisher_information(jac, 0.5)
        eff = effective_fim(fim, 2)
        thetas = np.deg2rad([[10.0, -20.0]])
        bound, stds = angle_crlb(eff, thetas, 42.5)
        for row in np.ndindex(2, 3):
            one_fim = fisher_information(jac[row], 0.5)
            np.testing.assert_array_equal(fim[row], one_fim)
            one_eff = effective_fim(one_fim, 2)
            np.testing.assert_array_equal(eff[row], one_eff)
            one_bound, one_stds = angle_crlb(one_eff, thetas[0], 42.5)
            np.testing.assert_array_equal(bound[row], one_bound)
            np.testing.assert_array_equal(stds[row], one_stds)

    def test_zeroed_channels_add_nothing_to_the_fim(self, geometry):
        # the length sweep bounds a shorter cell as a longer cell's
        # Jacobian with its later channels zeroed
        jac = jacobian(geometry, *random_targets(2, geometry, seed=9))
        counts = np.arange(6, geometry.channel_count + 1)
        kept = np.arange(geometry.channel_count)[:, None] \
            < counts[:, None, None]
        fims = fisher_information(np.where(kept, jac, 0.0), 0.3)
        for fim, count in zip(fims, counts):
            np.testing.assert_array_equal(
                fim, fisher_information(jac[:count], 0.3))

    def test_a_stack_raises_the_first_failing_check(self, geometry):
        jac = jacobian(geometry, *parameter_rows(geometry, (3,), 1,
                                                      seed=4))
        with pytest.raises(RydbergDoaError, match="positive and finite"):
            crlb_report_batch(jac, [1.0, 0.0, 1.0], [[0.1]] * 3, 42.5)
        with pytest.raises(EndFireSingularity):
            crlb_report_batch(jac, 1.0, [[0.1], [np.pi / 2], [0.2]], 42.5)


class TestTooFewChannels:
    """A Jacobian with fewer rows (channels) than columns (parameters) has
    a singular FIM: its bound is a domain error naming both counts."""

    @pytest.mark.parametrize("theta_deg", [10.0, -80.0])
    def test_two_windows_cannot_bound_three_parameters(self, rf_wavelength,
                                                       theta_deg):
        lam = rf_wavelength
        geometry = sensing.SensorGeometry(0.6 * lam, lam / 4, lam / 4)
        assert geometry.channel_count == 2
        scene = scenarios.scene_from_angles((theta_deg,))
        jac = jacobian(geometry, scene.delta_ks, scene.delta_phis,
                            [1.0])
        with pytest.raises(RydbergDoaError,
                           match="K = 2 channels for 3 parameters"):
            crlb_report(jac, 1e-3, [np.deg2rad(theta_deg)],
                        scene.wavenumber)

    def test_nuisance_columns_count(self, rf_wavelength):
        lam = rf_wavelength
        geometry = sensing.SensorGeometry(0.8 * lam, lam / 4, lam / 4)
        jac = jacobian(geometry, [30.0], [0.2], [1.0])
        offset = np.full(geometry.channel_count, geometry.window_width)
        crlb_report(jac, 1e-3, [0.3], 42.5)  # K = 3 bounds 3 parameters
        with pytest.raises(RydbergDoaError,
                           match="K = 3 channels for 4 parameters"):
            crlb_report(np.column_stack([jac, offset]), 1e-3, [0.3], 42.5)

    def test_singular_inverse_is_a_domain_error(self):
        with pytest.raises(RydbergDoaError, match="singular"):
            angle_crlb(np.zeros((1, 1)), [0.3], 10.0)


def test_crlb_import_loads_no_window_model():
    # The bound takes any Jacobian: importing crlb loads neither sensing
    # nor physics, only the errors it raises.
    code = ("import sys, rydberg_doa.crlb; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'rydberg_doa'))")
    src = str(Path(crlb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env)
    assert done.stdout.strip() == str(
        ["rydberg_doa", "rydberg_doa.crlb", "rydberg_doa.errors"])
