import numpy as np
import pytest
from scipy.integrate import quad

from rydberg_doa import physics, scenarios, sensing
from rydberg_doa.errors import (
    NonPositiveFluorescence,
    WindowOutOfCell,
    ZeroSignalPower,
)
from rydberg_doa.physics import PlaneWave, RfScene
from rydberg_doa.sensing import (
    FluorescenceProfile,
    MeasurementVector,
    SensorGeometry,
)


def lo_only_scene(amplitude=4e-5):
    return RfScene(lo=PlaneWave(amplitude, 0.0, np.pi / 2))


class TestGeometry:
    def test_from_cell_channel_count(self, rf_wavelength):
        geom = scenarios.default_geometry(rf_wavelength)
        assert geom.channel_count == 16
        assert geom.centers[0] == pytest.approx(rf_wavelength / 8)
        assert geom.centers[-1] + geom.window_width / 2 == \
            pytest.approx(4 * rf_wavelength)

    def test_windows_must_fit(self):
        with pytest.raises(ValueError):
            SensorGeometry(cell_length=1.0, window_width=0.3,
                           first_center=0.1, spacing=0.2, channel_count=5)

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            SensorGeometry(cell_length=1.0, window_width=0.1,
                           first_center=0.5, spacing=0.1, channel_count=1)


class TestPropagateProbe:
    def test_transparent_cell(self, geometry, rf_wavelength):
        profile = sensing.propagate_probe(lambda x: np.zeros_like(x),
                                          geometry, rf_wavelength)
        np.testing.assert_array_equal(profile.probe_power, 1.0)

    def test_uniform_absorber_closed_form(self, geometry, rf_wavelength):
        alpha = 2.5
        profile = sensing.propagate_probe(
            lambda x: np.full_like(x, alpha), geometry, rf_wavelength,
            input_power=0.7)
        expected = 0.7 * np.exp(-alpha * geometry.cell_length)
        assert profile.probe_power[-1] == pytest.approx(expected, rel=1e-8)

    def test_transmission_matches_quadrature(self, params, two_target,
                                             geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(alpha, geometry,
                                          two_target.rf_wavelength)
        depth, _ = quad(lambda x: float(alpha(x)), 0.0,
                        geometry.cell_length, limit=400)
        assert profile.probe_power[-1] == pytest.approx(np.exp(-depth),
                                                        rel=1e-6)

    def test_fluorescence_proportional(self, geometry, rf_wavelength):
        profile = sensing.propagate_probe(
            lambda x: np.full_like(x, 1.0), geometry, rf_wavelength,
            kappa=0.25)
        np.testing.assert_allclose(profile.fluorescence,
                                   0.25 * profile.probe_power)

    def test_profile_matches_ode_solver(self, params, two_target, geometry):
        from scipy.integrate import solve_ivp

        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(alpha, geometry,
                                          two_target.rf_wavelength)
        # high-order method: the oracle's dense-output noise must sit well
        # below the ~1e-7 attenuation scale being compared
        sol = solve_ivp(lambda x, p: -alpha(np.array([x]))[0] * p,
                        (0.0, geometry.cell_length), [1.0], method="DOP853",
                        t_eval=profile.positions, rtol=1e-12, atol=1e-16)
        depth = 1.0 - profile.probe_power
        depth_oracle = 1.0 - sol.y[0]
        np.testing.assert_allclose(depth[1:], depth_oracle[1:],
                                   rtol=1e-4, atol=1e-12)
        assert depth[-1] == pytest.approx(depth_oracle[-1], rel=1e-4)


class TestRecoverAlpha:
    def test_constant_profile_gives_zero(self):
        x = np.linspace(0, 1, 101)
        profile = FluorescenceProfile(positions=x,
                                      probe_power=np.full(101, 0.8),
                                      fluorescence=np.full(101, 0.8))
        recovered = sensing.recover_alpha(profile)
        np.testing.assert_allclose(recovered.values, 0.0, atol=1e-12)

    def test_roundtrip_recovers_exact_absorption(self, params, two_target,
                                                 geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(alpha, geometry,
                                          two_target.rf_wavelength)
        recovered = sensing.recover_alpha(profile)
        truth = alpha(recovered.positions)
        err = np.abs(recovered.values - truth)
        assert err.max() / np.abs(truth).max() < 1e-3
        # away from the one-sided boundary stencils the differencing error
        # stays well below the modulation amplitude
        scale = np.abs(
            physics.modulation_amplitudes(params, two_target)).sum()
        assert err[1:-1].max() / scale < 5e-4

    def test_kappa_cancels(self, params, two_target, geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        outs = []
        for kappa in (0.1, 1.0, 10.0):
            profile = sensing.propagate_probe(
                alpha, geometry, two_target.rf_wavelength, kappa=kappa)
            outs.append(sensing.recover_alpha(profile).values)
        # log(kappa*P) - log(P) leaves only rounding noise in the gradient
        tol = 1e-5 * np.abs(outs[1]).max()
        np.testing.assert_allclose(outs[0], outs[1], atol=tol, rtol=0)
        np.testing.assert_allclose(outs[2], outs[1], atol=tol, rtol=0)

    def test_rejects_nonpositive(self):
        x = np.linspace(0, 1, 11)
        power = np.linspace(1, 0, 11)  # hits zero at the end
        profile = FluorescenceProfile(positions=x, probe_power=power,
                                      fluorescence=power)
        with pytest.raises(NonPositiveFluorescence):
            sensing.recover_alpha(profile)


class TestChannelMeasurements:
    def test_constant_absorption_window_area(self, geometry):
        x = np.linspace(0, geometry.cell_length, 2001)
        alpha_dc = 3.7
        sampled = sensing.SampledAbsorption(x, np.full_like(x, alpha_dc))
        values = sensing.channel_measurements(sampled, geometry)
        np.testing.assert_allclose(values,
                                   alpha_dc * geometry.window_width,
                                   rtol=1e-12)

    def test_contiguous_windows_match_log_power_ratio(self, params,
                                                      two_target):
        lam = two_target.rf_wavelength
        geom = scenarios.default_geometry(lam)  # contiguous: width == pitch

        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(alpha, geom, lam)
        sampled = sensing.SampledAbsorption(
            profile.positions, alpha(profile.positions))
        values = sensing.channel_measurements(sampled, geom)
        for j in range(geom.channel_count):
            a, b = geom.window_edges(j)
            p_in = np.interp(a, profile.positions, profile.probe_power)
            p_out = np.interp(b, profile.positions, profile.probe_power)
            assert values[j] == pytest.approx(-np.log(p_out / p_in),
                                              rel=1e-6)

    def test_single_cosine_matches_antiderivative(self, geometry):
        dk, dphi, amp = 40.0, 0.6, 2.0
        x = np.linspace(0, geometry.cell_length, 300_001)
        sampled = sensing.SampledAbsorption(x, amp * np.cos(dk * x - dphi))
        values = sensing.channel_measurements(sampled, geometry)
        for j in range(geometry.channel_count):
            a, b = geometry.window_edges(j)
            exact = amp * (np.sin(dk * b - dphi) - np.sin(dk * a - dphi)) / dk
            assert values[j] == pytest.approx(exact, rel=1e-8)

    def test_window_outside_sampled_domain(self, geometry):
        x = np.linspace(0.1, geometry.cell_length, 101)  # misses the start
        sampled = sensing.SampledAbsorption(x, np.ones_like(x))
        with pytest.raises(WindowOutOfCell):
            sensing.channel_measurements(sampled, geometry)


class TestCalibrate:
    def test_lo_only_scene_nulls(self, params, geometry):
        scene = lo_only_scene()
        mv = sensing.simulate_measurements(scene, geometry, params)
        np.testing.assert_allclose(mv.values, 0.0, atol=1e-8)

    def test_idempotent_with_zero_dc(self, geometry):
        values = np.sin(np.arange(geometry.channel_count))
        once = sensing.calibrate(values, geometry, 0.0)
        twice = sensing.calibrate(once.values, geometry, 0.0)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_pipeline_matches_prediction(self, params, two_target, geometry):
        simulated = sensing.simulate_measurements(two_target, geometry,
                                                  params)
        predicted = sensing.predicted_measurements(two_target, geometry,
                                                   params)
        scale = np.max(np.abs(predicted.values))
        # full pipeline carries linearization + numerical error
        resid = physics.absorption_exact(
            params, two_target, simulated.geometry.grid(
                two_target.rf_wavelength)) - physics.absorption_linearized(
            params, two_target, simulated.geometry.grid(
                two_target.rf_wavelength))
        eps_lin = np.max(np.abs(resid)) * geometry.window_width
        assert np.max(np.abs(simulated.values - predicted.values)) <= \
            eps_lin + 1e-3 * scale


class TestPredictedMeasurements:
    def test_window_null_hides_target(self, params, rf_wavelength):
        # window width lambda puts a transform null exactly at dk = k
        geom = scenarios.default_geometry(rf_wavelength,
                                          window_wavelengths=1.0)
        scene = scenarios.scene_from_angles((0.0,))
        mv = sensing.predicted_measurements(scene, geom, params)
        mods = physics.modulation_amplitudes(params, scene)
        assert np.max(np.abs(mv.values)) < 1e-12 * np.abs(mods).max()

    def test_matches_integrated_linearized_profile(self, params, two_target):
        lam = two_target.rf_wavelength
        fine = scenarios.default_geometry(
            lam, grid_points_per_rf_wavelength=65536)
        x = fine.grid(lam)
        sampled = sensing.SampledAbsorption(
            x, physics.absorption_linearized(params, two_target, x))
        integrated = sensing.calibrate(
            sensing.channel_measurements(sampled, fine), fine,
            physics.absorption_dc(params, two_target))
        predicted = sensing.predicted_measurements(two_target, fine, params)
        scale = np.max(np.abs(predicted.values))
        np.testing.assert_allclose(integrated.values, predicted.values,
                                   atol=1e-8 * scale)

    def test_aliased_frequencies_indistinguishable_with_point_windows(
            self, rf_wavelength):
        # centers on integer multiples of the pitch, so a 2*pi*q/spacing
        # frequency shift leaves every sample identical
        geom = SensorGeometry(
            cell_length=5 * rf_wavelength,
            window_width=1e-7 * rf_wavelength,
            first_center=rf_wavelength / 4, spacing=rf_wavelength / 4,
            channel_count=16)
        dk = 0.4 * 2 * np.pi / rf_wavelength
        base = sensing.sinusoid_measurements(geom, [dk], [0.3], [1.0])
        for q in (1, 2):
            shifted = dk + q * 2 * np.pi / geom.spacing
            alias = sensing.sinusoid_measurements(geom, [shifted], [0.3],
                                                  [1.0])
            np.testing.assert_allclose(alias, base, rtol=1e-7)


class TestWindowTransform:
    def test_dc_gain_is_area(self):
        assert sensing.window_transform(0.25, 0.0) == pytest.approx(0.25)

    def test_first_null(self):
        ell = 0.3
        assert sensing.window_transform(ell, 2 * np.pi / ell) == \
            pytest.approx(0.0, abs=1e-15)

    def test_half_null_frequency(self):
        ell = 0.3
        assert sensing.window_transform(ell, np.pi / ell) == \
            pytest.approx(2 * ell / np.pi, rel=1e-12)

    def test_continuity_near_zero(self):
        ell = 0.25
        omega = np.array([1e-12, 1e-9, 1e-7, 1e-5])
        got = sensing.window_transform(ell, omega)
        np.testing.assert_allclose(got, ell, rtol=1e-9)


class TestCheckSampling:
    def test_quarter_wave_boundary_inclusive(self, rf_wavelength):
        geom = scenarios.default_geometry(rf_wavelength)
        report = sensing.check_sampling(geom, rf_wavelength)
        assert report.spacing_ok and report.width_ok and report.compliant

    def test_half_wave_spacing_flagged(self, rf_wavelength):
        geom = scenarios.default_geometry(rf_wavelength,
                                          spacing_wavelengths=0.5)
        report = sensing.check_sampling(geom, rf_wavelength)
        assert not report.spacing_ok
        assert report.width_ok

    def test_full_wave_window_flagged(self, rf_wavelength):
        geom = scenarios.default_geometry(rf_wavelength,
                                          window_wavelengths=1.0)
        report = sensing.check_sampling(geom, rf_wavelength)
        assert not report.width_ok
        assert report.spacing_ok


class TestAddNoise:
    def make_measurement(self, geometry):
        values = np.cos(1.3 * np.arange(geometry.channel_count))
        return MeasurementVector(values=values, geometry=geometry)

    def test_infinite_snr_identity(self, geometry):
        mv = self.make_measurement(geometry)
        out = sensing.add_noise(mv, np.inf, 3)
        np.testing.assert_array_equal(out.values, mv.values)

    def test_deterministic_per_seed(self, geometry):
        mv = self.make_measurement(geometry)
        a = sensing.add_noise(mv, 20.0, 42)
        b = sensing.add_noise(mv, 20.0, 42)
        np.testing.assert_array_equal(a.values, b.values)
        c = sensing.add_noise(mv, 20.0, 43)
        assert not np.array_equal(a.values, c.values)

    def test_noise_variance_calibrated(self, geometry):
        mv = self.make_measurement(geometry)
        snr_db = 17.0
        sigma2 = sensing.signal_power(mv.values) / 10 ** (snr_db / 10)
        draws = np.empty((100_000, geometry.channel_count))
        for seed in range(draws.shape[0]):
            draws[seed] = sensing.add_noise(mv, snr_db, seed).values \
                - mv.values
        assert draws.var() == pytest.approx(sigma2, rel=0.02)

    def test_seed_sequence_stacks_single_seed_draws(self, geometry):
        mv = self.make_measurement(geometry)
        stack = sensing.add_noise(mv, 20.0, [5, 6, 7])
        assert stack.values.shape == (3, geometry.channel_count)
        assert stack.rng_seed == (5, 6, 7)
        for row, seed in zip(stack.values, (5, 6, 7)):
            single = sensing.add_noise(mv, 20.0, seed)
            np.testing.assert_array_equal(row, single.values)
            assert single.noise_sigma == stack.noise_sigma

    def test_constant_vector_rejected(self, geometry):
        mv = MeasurementVector(
            values=np.full(geometry.channel_count, 1.5), geometry=geometry)
        with pytest.raises(ZeroSignalPower):
            sensing.add_noise(mv, 20.0, 0)

    def test_rejects_already_noisy_input(self, geometry):
        noisy = sensing.add_noise(self.make_measurement(geometry), 20.0, 0)
        with pytest.raises(ValueError):
            sensing.add_noise(noisy, 20.0, 1)


class TestIntegratedPower:
    def test_zero_beat_frequency_constant_integrand(self, params):
        # target at the LO bearing: dk = 0, integrand is constant
        scene = RfScene(lo=PlaneWave(2e-5, 0.0, np.pi / 2),
                        signals=(PlaneWave(1e-6, 0.0, np.pi / 2),),
                        carrier_freq=2.03e9)
        length = 0.05
        mod = physics.modulation_amplitudes(params, scene)[0]
        dc = physics.absorption_dc(params, scene)
        expected = np.exp(-(dc + mod) * length)
        got = sensing.integrated_power_transmission(scene, params, length)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_monotone_length_bound_value(self, rf_wavelength):
        bound = sensing.monotonic_length_bound(rf_wavelength)
        assert bound == pytest.approx(0.0528022, rel=1e-4)
        assert abs(bound - 0.358 * rf_wavelength) < 1e-3 * rf_wavelength

    def test_sinc_response_limits(self):
        length = 0.3
        assert sensing.sinc_response(0.0, length) == pytest.approx(length)
        dk = 17.0
        x = np.linspace(0.0, length, 200_001)
        oracle = np.trapezoid(np.cos(dk * x), x)
        assert sensing.sinc_response(dk, length) == pytest.approx(
            oracle, rel=1e-9)

    @pytest.mark.parametrize("length_wl,monotone", [(0.3, True),
                                                    (0.5, False)])
    def test_transmission_monotonicity(self, params, rf_wavelength,
                                       length_wl, monotone):
        # responsive operating point so T(theta) has real dynamic range
        thetas = np.deg2rad(np.arange(-90.0, 90.25, 0.25))
        length = length_wl * rf_wavelength
        values = []
        for theta in thetas:
            scene = RfScene(lo=PlaneWave(1.4e-2, 0.0, np.pi / 2),
                            signals=(PlaneWave(1.4e-3, 0.0, theta),),
                            carrier_freq=2.03e9)
            values.append(
                sensing.integrated_power_transmission(scene, params, length))
        diffs = np.diff(values)
        if monotone:
            assert np.all(diffs < 0) or np.all(diffs > 0)
        else:
            assert np.any(diffs > 0) and np.any(diffs < 0)

    def test_requires_single_target(self, params, two_target):
        with pytest.raises(ValueError):
            sensing.integrated_power_transmission(two_target, params, 0.05)


class TestSerializationRoundtrip:
    def test_values_are_immutable(self, geometry):
        mv = MeasurementVector(values=np.zeros(geometry.channel_count),
                               geometry=geometry)
        with pytest.raises(ValueError):
            mv.values[0] = 1.0
