import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from rydberg_doa import physics, scenarios, sensing
from rydberg_doa.config import load_config
from rydberg_doa.errors import (
    NonPositiveFluorescence,
    SingularPoint,
    WindowOutOfCell,
    ZeroSignalPower,
)
from rydberg_doa.experiments import CELL_SEED_STRIDE
from rydberg_doa.physics import PlaneWave, RfScene
from rydberg_doa.sensing import (
    FluorescenceProfile,
    MeasurementVector,
    SensorGeometry,
)

from oracles import (
    absorption_exact_per_scene,
    channel_measurements_per_window,
    field_intensity_per_scene,
    fluorescence_readout_per_scene,
    integrated_power_transmission,
    monotonic_length_bound,
    sinc_response,
)


ROOT = Path(__file__).resolve().parent.parent

# Largest gap between the log-difference readout and the gradient-and-
# trapezoid readout it replaced (oracles.fluorescence_readout_per_scene),
# as a share of the channel std, at 256-257 points per lambda: measured
# 2.8e-4 on the two-target scene and at most 4.5e-4 over 1-3 targets, LO
# ratios 2-50 and 8-16 lambda cells. Most of it is the old readout's own
# error against quadrature (see TestReadoutAccuracy).
GRADIENT_READOUT_TOL = 5e-4


def lo_only_scene(amplitude=4e-5):
    return RfScene(lo=PlaneWave(amplitude, 0.0, np.pi / 2))


def panel_means(alpha):
    """Trapezoid mean of point samples over each grid panel."""
    return (alpha[..., 1:] + alpha[..., :-1]) / 2


class TestGeometry:
    def test_derived_channel_count(self, rf_wavelength):
        geom = scenarios.default_geometry(rf_wavelength)
        assert geom.channel_count == 16
        assert geom.centers[0] == pytest.approx(rf_wavelength / 8)
        assert geom.centers[-1] + geom.window_width / 2 == \
            pytest.approx(4 * rf_wavelength)

    # First window center -> windows that fit a unit cell on a 0.07 pitch.
    # None is the 0.1-wide geometry reached by replace from a longer cell.
    PACKED = {None: 13, 0.05: 13, 0.13: 11, 0.25: 8}

    @pytest.mark.parametrize("first", list(PACKED))
    def test_from_cell_packs_as_many_windows_as_fit(self, first):
        # The windows follow from the cell: the first sits flush with
        # x = 0, its center half a width in, and one more window on the
        # pitch would leave the cell.
        width = 0.1 if first is None else 2 * first
        geom = SensorGeometry(cell_length=1.0 if first else 2.0,
                              window_width=width, spacing=0.07)
        if first is None:
            geom = replace(geom, cell_length=1.0)
        count = self.PACKED[first]
        assert geom.channel_count == count
        assert geom.centers[0] == (0.05 if first is None else first)
        np.testing.assert_array_equal(
            geom.centers, width / 2 + 0.07 * np.arange(count))
        last_edge = geom.window_edges[1][-1]
        assert last_edge <= 1.0 < last_edge + geom.spacing

    def test_count_is_not_an_argument_and_follows_replace(self):
        geom = SensorGeometry(cell_length=1.0, window_width=0.1,
                              spacing=0.07)
        with pytest.raises(TypeError):
            SensorGeometry(cell_length=1.0, window_width=0.1, spacing=0.07,
                           channel_count=5)
        longer = replace(geom, cell_length=2.0)
        assert longer.channel_count == 28
        assert longer == SensorGeometry(cell_length=2.0, window_width=0.1,
                                        spacing=0.07)

    def test_windows_must_fit(self, rf_wavelength):
        # Every window lies inside the cell; contiguous windows end on the
        # cell edge, up to rounding.
        for cells, width, pitch in itertools.product(
                (1.5, 4.0, 16.0), (0.25, 0.1, 1.0, 0.15), (0.25, 0.15, 0.2)):
            geom = scenarios.default_geometry(rf_wavelength, cells, width,
                                              pitch)
            lo, hi = geom.window_edges
            assert lo[0] == 0.0
            assert hi[-1] <= geom.cell_length * (1 + 1e-12)

    def test_needs_two_channels(self):
        with pytest.raises(ValueError, match="two channels"):
            SensorGeometry(cell_length=1.0, window_width=0.6, spacing=0.5)

    def test_window_edges_are_centers_minus_plus_half_width(self, geometry):
        lo, hi = geometry.window_edges
        assert lo.shape == hi.shape == (geometry.channel_count,)
        for j in range(geometry.channel_count):
            center = geometry.window_width / 2 + geometry.spacing * j
            assert lo[j] == center - geometry.window_width / 2
            assert hi[j] == center + geometry.window_width / 2


class TestPropagateProbe:
    def test_cumulative_trapezoid_equals_scipy(self):
        # the probe's optical depth: the running integral of trapezoid
        # panel means is scipy's cumulative trapezoid, bit for bit
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.uniform(1e-4, 2e-3, 513))
        y = rng.standard_normal(513) * np.exp(rng.uniform(-30, 5, 513))
        got = sensing.running_integral(panel_means(y), x)
        np.testing.assert_array_equal(
            got, cumulative_trapezoid(y, x, initial=0.0))

    def test_transparent_cell(self, geometry, rf_wavelength):
        profile = sensing.propagate_probe(lambda x: np.zeros_like(x),
                                          geometry, rf_wavelength)
        np.testing.assert_array_equal(profile.probe_power, 1.0)

    def test_uniform_absorber_closed_form(self, geometry, rf_wavelength):
        alpha = 2.5
        profile = sensing.propagate_probe(
            lambda x: np.full_like(x, alpha), geometry, rf_wavelength)
        expected = np.exp(-alpha * geometry.cell_length)
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
        # the image's scale cancels in recover_alpha, so it is taken as 1
        profile = sensing.propagate_probe(
            lambda x: np.full_like(x, 1.0), geometry, rf_wavelength)
        np.testing.assert_array_equal(profile.fluorescence,
                                      profile.probe_power)

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
        assert recovered.values.shape == (100,)
        np.testing.assert_allclose(recovered.values, 0.0, atol=1e-12)

    def test_roundtrip_recovers_exact_absorption(self, params, two_target,
                                                 geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(alpha, geometry,
                                          two_target.rf_wavelength)
        recovered = sensing.recover_alpha(profile)
        x = recovered.positions
        # a panel mean sits within the midpoint rule's error of the
        # absorption at the panel midpoint, on every panel
        truth = alpha((x[1:] + x[:-1]) / 2)
        err = np.abs(recovered.values - truth)
        assert err.max() / np.abs(truth).max() < 1e-3
        scale = np.abs(
            physics.modulation_amplitudes(params, two_target)).sum()
        assert err.max() / scale < 5e-4

    def test_kappa_cancels(self, params, two_target, geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(alpha, geometry,
                                          two_target.rf_wavelength)
        outs = []
        for kappa in (0.1, 1.0, 10.0):
            scaled = FluorescenceProfile(
                positions=profile.positions, probe_power=profile.probe_power,
                fluorescence=kappa * profile.fluorescence)
            outs.append(sensing.recover_alpha(scaled).values)
        # log(kappa*P) - log(P) leaves only rounding noise in the difference
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


def tau_test(x):
    """Analytic optical depth of alpha = 2 + cos(37x - 0.4) + 0.1 sin(91x)."""
    return 2.0 * x + np.sin(37.0 * x - 0.4) / 37.0 \
        - 0.1 * np.cos(91.0 * x) / 91.0


TAU_TEST_CURVATURE = 37.0 + 9.1  # bound on |tau''| = |alpha'|


class TestChannelMeasurements:
    def test_constant_absorption_window_area(self, geometry):
        x = np.linspace(0, geometry.cell_length, 2001)
        alpha_dc = 3.7
        panels = sensing.PanelAbsorption(x, np.full(x.size - 1, alpha_dc))
        values = sensing.channel_measurements(panels, geometry)
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
        panels = sensing.PanelAbsorption(
            profile.positions, panel_means(alpha(profile.positions)))
        values = sensing.channel_measurements(panels, geom)
        for j, (a, b) in enumerate(zip(*geom.window_edges)):
            p_in = np.interp(a, profile.positions, profile.probe_power)
            p_out = np.interp(b, profile.positions, profile.probe_power)
            assert values[j] == pytest.approx(-np.log(p_out / p_in),
                                              rel=1e-6)

    def test_single_cosine_matches_antiderivative(self, geometry):
        dk, dphi, amp = 40.0, 0.6, 2.0
        x = np.linspace(0, geometry.cell_length, 300_001)
        midpoints = (x[1:] + x[:-1]) / 2
        panels = sensing.PanelAbsorption(
            x, amp * np.cos(dk * midpoints - dphi))
        values = sensing.channel_measurements(panels, geometry)
        for j, (a, b) in enumerate(zip(*geometry.window_edges)):
            exact = amp * (np.sin(dk * b - dphi) - np.sin(dk * a - dphi)) / dk
            assert values[j] == pytest.approx(exact, rel=1e-8)

    def test_window_outside_sampled_domain(self, geometry):
        lo, hi = geometry.window_edges
        # missing the start puts windows 1-3 outside, the end windows 14-16
        for start, stop, first_bad in ((0.1, 0.0, 0), (0.0, 0.1, 13)):
            x = np.linspace(start, geometry.cell_length - stop, 101)
            panels = sensing.PanelAbsorption(x, np.ones(x.size - 1))
            with pytest.raises(WindowOutOfCell) as batched:
                sensing.channel_measurements(panels, geometry)
            assert str(batched.value).startswith(
                f"window {first_bad + 1} [{lo[first_bad]:g}, "
                f"{hi[first_bad]:g}]")
            with pytest.raises(WindowOutOfCell) as per_window:
                channel_measurements_per_window(x, np.ones_like(x), geometry)
            assert str(batched.value) == str(per_window.value)

    @staticmethod
    def assert_stack_reads_tau_difference(x, geometry, tau, curvature):
        """Read the images F = exp(-s * tau), s = 0.5, 1 and 2, as one
        stack. Each row equals the call on its image alone, bit for bit.
        Channel j of a row is s * (tau(b) - tau(a)) over its window [a, b]
        clipped to the positions: within rounding when both edges fall on
        grid points, and otherwise within the linear-interpolation error
        of s * tau at an edge e inside panel i, |(e - x_i)(x_i+1 - e)| / 2
        times a bound on |s * tau''|."""
        scales = np.array([[0.5], [1.0], [2.0]])
        images = np.exp(-scales * tau(x))
        stack = FluorescenceProfile(positions=x, probe_power=images,
                                    fluorescence=images)
        values = sensing.channel_measurements(sensing.recover_alpha(stack),
                                              geometry)
        for row, image in zip(values, images):
            one = FluorescenceProfile(positions=x, probe_power=image,
                                      fluorescence=image)
            assert np.array_equal(row, sensing.channel_measurements(
                sensing.recover_alpha(one), geometry))
        lo, hi = geometry.window_edges
        a, b = np.maximum(lo, x[0]), np.minimum(hi, x[-1])

        def interpolation_error(edge):
            i = np.clip(np.searchsorted(x, edge) - 1, 0, x.size - 2)
            return np.abs((edge - x[i]) * (x[i + 1] - edge)) / 2 * curvature

        # the panel differences telescope; each one rounds in the log, the
        # division and the multiplication, and the running sum adds one
        # rounding a panel
        rounding = 8 * x.size * np.finfo(float).eps * \
            max(1.0, np.abs(scales * tau(x)).max())
        err = np.abs(values - scales * (tau(b) - tau(a)))
        bound = scales * (interpolation_error(a) + interpolation_error(b)) \
            + rounding
        assert np.all(err <= bound), np.max(err / bound)

    @pytest.mark.parametrize("cell_wavelengths", [8, 11, 16])
    def test_fluorescence_scene_bit_exact(self, params, cell_wavelengths):
        # the grid of an LO-ratio sweep cell, 256 points per lambda, where
        # every window edge falls on a grid point; tau is the optical depth
        # of the linearized absorption of three targets, a closed form
        scene = scenarios.scene_from_angles((-30.0, 5.0, 40.0),
                                            lo_ratio=7.0)
        geom = scenarios.default_geometry(scene.rf_wavelength,
                                          cell_wavelengths)
        dc = physics.absorption_dc(params, scene)
        mods = physics.modulation_amplitudes(params, scene)
        dks, dphis = scene.delta_ks, scene.delta_phis

        def tau(x):
            return dc * x + sum(m * np.sin(dk * x - dphi) / dk
                                for m, dk, dphi in zip(mods, dks, dphis))

        self.assert_stack_reads_tau_difference(
            geom.grid(scene.rf_wavelength), geom, tau,
            np.abs(mods * dks).sum())

    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 5, 16, 257])
    def test_coarse_and_odd_grids_bit_exact(self, rf_wavelength,
                                            points_per_wavelength):
        # at 2-5 points per lambda a quarter-wave window holds 0 or 1
        # interior samples, and edges can fall on grid points
        geom = scenarios.default_geometry(
            rf_wavelength, cell_wavelengths=6.0, window_wavelengths=0.3,
            spacing_wavelengths=0.2,
            grid_points_per_rf_wavelength=points_per_wavelength)
        self.assert_stack_reads_tau_difference(
            geom.grid(rf_wavelength), geom, tau_test, TAU_TEST_CURVATURE)

    def test_non_uniform_positions_bit_exact(self, geometry):
        rng = np.random.default_rng(11)
        inner = rng.uniform(0.0, geometry.cell_length, 700)
        x = np.sort(np.concatenate(([0.0, geometry.cell_length], inner)))
        self.assert_stack_reads_tau_difference(x, geometry, tau_test,
                                               TAU_TEST_CURVATURE)

    def test_windows_clipped_at_domain_ends_bit_exact(self, geometry):
        # the first and last windows overhang the samples by less than
        # the 1e-9 * cell_length tolerance, so both get clipped
        overhang = 4e-10 * geometry.cell_length
        x = np.linspace(overhang, geometry.cell_length - overhang, 1001)
        lo, hi = geometry.window_edges
        assert lo[0] < x[0] and hi[-1] > x[-1]
        self.assert_stack_reads_tau_difference(x, geometry, tau_test,
                                               TAU_TEST_CURVATURE)


class TestReadoutAccuracy:
    """The full readout against scipy.quad window integrals of the exact
    absorption above its LO-only background, on fig3c's scene."""

    @pytest.mark.parametrize("points_per_wavelength, bound",
                             [(256, 2e-4), (16, 5e-2)])
    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_windows_match_quadrature(self, ratio, points_per_wavelength,
                                      bound):
        scenario = load_config(ROOT / "configs" / "fig3c.json").scenario
        params = scenario.params
        scene = scenarios.with_lo_ratio(scenario.scene, ratio)
        geom = replace(scenario.geometry,
                       grid_points_per_rf_wavelength=points_per_wavelength)
        got = sensing.simulate_measurements(scene, geom, params).values
        dc = physics.absorption_dc(params, scene)
        truth = np.array([
            quad(lambda x: physics.absorption_exact(params, scene, x) - dc,
                 a, b, epsabs=0, epsrel=1e-10, limit=200)[0]
            for a, b in zip(*geom.window_edges)])
        assert np.abs(got - truth).max() <= bound * truth.std()


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


class TestStackedReadout:
    """A stack of scenes that differ only in LO amplitude reads out in one
    call, and every row equals the readout of its scene alone bit for bit:
    the image equals the per-scene oracle's, and the measurements equal a
    one-scene call."""

    RATIOS = (2.0, 4.7, 13.0, 50.0)
    BEARINGS = {1: (-35.0,), 2: (-20.0, 25.0), 3: (-50.0, 5.0, 40.0)}

    @staticmethod
    def stack(n_targets, ratios):
        base = scenarios.scene_from_angles(
            TestStackedReadout.BEARINGS[n_targets],
            phases=(0.3, 3.5, 5.4)[:n_targets])
        return [scenarios.with_lo_ratio(base, r) for r in ratios]

    @staticmethod
    def assert_rows_match(scenes, geometry, params):
        profile, measurement = sensing.fluorescence_readout(
            scenes, geometry, params)
        assert measurement.values.shape == (len(scenes),
                                            geometry.channel_count)
        for c, scene in enumerate(scenes):
            want_profile, _ = fluorescence_readout_per_scene(
                scene, geometry, params)
            assert np.array_equal(profile.positions, want_profile.positions)
            assert np.array_equal(profile.probe_power[c],
                                  want_profile.probe_power)
            assert np.array_equal(profile.fluorescence[c],
                                  want_profile.fluorescence)
            _, want = sensing.fluorescence_readout(scene, geometry, params)
            assert np.array_equal(measurement.values[c], want.values)

    @pytest.mark.parametrize("points_per_wavelength", [3, 257])
    @pytest.mark.parametrize("cell_wavelengths", [8, 11, 16])
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_rows_equal_per_scene_readout(self, params, n_targets,
                                          cell_wavelengths,
                                          points_per_wavelength):
        scenes = self.stack(n_targets, self.RATIOS)
        geom = scenarios.default_geometry(
            scenes[0].rf_wavelength, cell_wavelengths,
            grid_points_per_rf_wavelength=points_per_wavelength)
        self.assert_rows_match(scenes, geom, params)

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_physics_rows_equal_per_scene(self, params, n_targets):
        scenes = self.stack(n_targets, self.RATIOS)
        x = np.linspace(-0.3, 0.9, 1001)
        field = physics.field_intensity(scenes, x)
        alpha = physics.absorption_exact(params, scenes, x)
        assert field.shape == alpha.shape == (len(scenes), x.size)
        for c, scene in enumerate(scenes):
            assert np.array_equal(field[c],
                                  field_intensity_per_scene(scene, x))
            assert np.array_equal(alpha[c], absorption_exact_per_scene(
                params, scene, x))
        assert physics.field_intensity(scenes[:1], 0.25).shape == (1,)
        assert isinstance(physics.field_intensity(scenes[0], 0.25), float)

    @pytest.mark.parametrize("model", ["exact"])
    def test_single_scene_is_the_per_scene_readout(self, params, geometry,
                                                   two_target, model):
        profile, got = sensing.fluorescence_readout(two_target, geometry,
                                                    params)
        want_profile, want = fluorescence_readout_per_scene(
            two_target, geometry, params)
        assert profile.probe_power.shape == want_profile.probe_power.shape
        assert np.array_equal(profile.fluorescence, want_profile.fluorescence)
        assert np.abs(got.values - want.values).max() <= \
            GRADIENT_READOUT_TOL * want.values.std()
        assert got.values.shape == want.values.shape

    def test_stack_of_one(self, params, geometry, two_target):
        self.assert_rows_match([two_target], geometry, params)

    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 5, 257])
    def test_channel_rows_equal_per_scene(self, rf_wavelength,
                                          points_per_wavelength):
        geom = scenarios.default_geometry(
            rf_wavelength, grid_points_per_rf_wavelength=points_per_wavelength)
        x = geom.grid(rf_wavelength)
        rng = np.random.default_rng(points_per_wavelength)
        values = rng.standard_normal((3, x.size - 1)) * 10.0 ** rng.uniform(
            -6, 6, (3, 1))
        got = sensing.channel_measurements(
            sensing.PanelAbsorption(x, values), geom)
        for row, want in zip(got, values):
            assert np.array_equal(row, sensing.channel_measurements(
                sensing.PanelAbsorption(x, want), geom))

    def test_window_out_of_cell_names_first_bad_window(self, geometry):
        x = np.linspace(0.0, geometry.cell_length - 0.1, 101)
        values = np.ones((3, x.size - 1))
        with pytest.raises(WindowOutOfCell) as stacked:
            sensing.channel_measurements(
                sensing.PanelAbsorption(x, values), geometry)
        with pytest.raises(WindowOutOfCell) as single:
            sensing.channel_measurements(
                sensing.PanelAbsorption(x, values[0]), geometry)
        assert str(stacked.value) == str(single.value)
        assert str(stacked.value).startswith("window 14 ")

    def test_nonpositive_row_rejects_the_stack(self):
        x = np.linspace(0, 1, 11)
        power = np.ones((3, 11))
        power[1, -1] = 0.0
        profile = FluorescenceProfile(positions=x, probe_power=power,
                                      fluorescence=power)
        with pytest.raises(NonPositiveFluorescence,
                           match="fluorescence must be strictly positive"):
            sensing.recover_alpha(profile)

    def test_singular_row_rejects_the_stack(self, params, geometry):
        _, beta = physics.linearization_constants(params)
        amplitude = np.sqrt(params.coupling_detuning / beta)
        while params.coupling_detuning - beta * amplitude**2 != 0:
            amplitude = np.nextafter(amplitude, 1.0)
        singular = lo_only_scene(float(amplitude))
        with pytest.raises(SingularPoint) as single:
            fluorescence_readout_per_scene(singular, geometry, params)
        with pytest.raises(SingularPoint) as stacked:
            sensing.fluorescence_readout(
                [lo_only_scene(), singular], geometry, params)
        assert str(stacked.value) == str(single.value)

    def test_scenes_must_differ_only_in_lo_amplitude(self, params, geometry,
                                                     two_target):
        other = scenarios.with_lo_ratio(two_target, 7.0)
        lo = two_target.lo
        for bad in (replace(other, signals=other.signals[:1]),
                    replace(other, carrier_freq=2.1e9),
                    replace(other, lo=replace(lo, phase=0.5)),
                    replace(other, lo=replace(lo, angle=0.5))):
            with pytest.raises(ValueError, match="only in LO amplitude"):
                sensing.fluorescence_readout([two_target, bad], geometry,
                                             params)


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
        panels = sensing.PanelAbsorption(x, panel_means(
            physics.absorption_linearized(params, two_target, x)))
        integrated = sensing.calibrate(
            sensing.channel_measurements(panels, fine), fine,
            physics.absorption_dc(params, two_target))
        predicted = sensing.predicted_measurements(two_target, fine, params)
        scale = np.max(np.abs(predicted.values))
        np.testing.assert_allclose(integrated.values, predicted.values,
                                   atol=1e-8 * scale)

    def test_aliased_frequencies_indistinguishable_with_point_windows(
            self, rf_wavelength):
        # centers sit half a window width past integer multiples of the
        # pitch, so a 2*pi*q/spacing frequency shift turns every sample's
        # phase by the same (shifted - dk) * width/2; with that phase
        # offset the samples are identical
        geom = SensorGeometry(
            cell_length=5 * rf_wavelength,
            window_width=1e-7 * rf_wavelength, spacing=rf_wavelength / 4)
        dk = 0.4 * 2 * np.pi / rf_wavelength
        base = sensing.sinusoid_measurements(geom, [dk], [0.3], [1.0])
        for q in (1, 2):
            shifted = dk + q * 2 * np.pi / geom.spacing
            phase = 0.3 + (shifted - dk) * geom.window_width / 2
            alias = sensing.sinusoid_measurements(geom, [shifted], [phase],
                                                  [1.0])
            np.testing.assert_allclose(alias, base, rtol=1e-7)


class TestWindowTransform:
    """The even moment of the one window kernel is the spatial Fourier
    transform of the rectangular mother window, 2*sin(omega*l/2)/omega."""

    @staticmethod
    def transform(ell, omega):
        return sensing._window_kernels(omega, ell / 2)[0]

    def test_dc_gain_is_area(self):
        assert self.transform(0.25, 0.0) == pytest.approx(0.25)

    def test_first_null(self):
        ell = 0.3
        assert self.transform(ell, 2 * np.pi / ell) == \
            pytest.approx(0.0, abs=1e-15)

    def test_half_null_frequency(self):
        ell = 0.3
        assert self.transform(ell, np.pi / ell) == \
            pytest.approx(2 * ell / np.pi, rel=1e-12)

    def test_continuity_near_zero(self):
        ell = 0.25
        for omega in (1e-12, 1e-9, 1e-7, 1e-5):
            assert self.transform(ell, omega) == pytest.approx(ell, rel=1e-9)

    # Each side of the series switch at |u| = 0.03, and of the 1e-6 switch
    # the bound's kernel used to have: there the closed odd moment was off
    # by 8e-5 relative, lost to cancellation.
    @pytest.mark.parametrize("u", [1e-6 * (1 - 1e-9), 1e-6 * (1 + 1e-9),
                                   0.03 * (1 - 1e-9), 0.03 * (1 + 1e-9),
                                   -0.03 * (1 + 1e-9)])
    def test_moments_match_quadrature_across_series_switch(self, u):
        h = 0.125
        dk = u / h
        even, odd = sensing._window_kernels(dk, h)
        # both integrands keep one sign on the window: no cancellation
        opts = {"epsabs": 0.0, "epsrel": 1e-13}
        even_ref = quad(lambda x: np.cos(dk * x), -h, h, **opts)[0]
        odd_ref = quad(lambda x: x * np.sin(dk * x), -h, h, **opts)[0]
        assert even == pytest.approx(even_ref, rel=1e-12, abs=0)
        assert odd == pytest.approx(odd_ref, rel=1e-12, abs=0)


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
        # One stack of seeds 0..99,999: row t is the single-seed draw of t.
        draws = sensing.add_noise(mv, snr_db, range(100_000)).values \
            - mv.values
        assert draws.var() == pytest.approx(sigma2, rel=0.02)

    def test_snr_without_finite_positive_ratio_rejected(self, geometry):
        assert sensing.snr_ratio(17.0) == 10 ** 1.7
        assert 0 < sensing.snr_ratio(-3200.0) < sensing.snr_ratio(3000.0)
        mv = self.make_measurement(geometry)
        for snr_db in (3090.0, -3240.0, 4000.0, -4000.0, np.nan):
            with pytest.raises(ValueError, match="finite positive"):
                sensing.add_noise(mv, snr_db, 0)

    def test_minus_infinite_snr_rejected(self, geometry):
        # -inf dB is pure noise, not the noiseless +inf case.
        mv = self.make_measurement(geometry)
        for seed in (0, range(20)):
            with pytest.raises(ValueError, match="finite positive"):
                sensing.add_noise(mv, -np.inf, seed)

    def test_seed_sequence_stacks_single_seed_draws(self, geometry):
        mv = self.make_measurement(geometry)
        stack = sensing.add_noise(mv, 20.0, [5, 6, 7])
        assert stack.values.shape == (3, geometry.channel_count)
        for row, seed in zip(stack.values, (5, 6, 7)):
            single = sensing.add_noise(mv, 20.0, seed)
            np.testing.assert_array_equal(row, single.values)
            assert single.noise_sigma == stack.noise_sigma

    def assert_rows_are_single_seed_draws(self, mv, seeds, snr_db=20.0):
        stack = sensing.add_noise(mv, snr_db, seeds)
        assert stack.values.shape == (len(seeds), mv.geometry.channel_count)
        k = mv.geometry.channel_count
        expected = [mv.values + stack.noise_sigma
                    * np.random.default_rng(s).standard_normal(k)
                    for s in seeds]
        np.testing.assert_array_equal(stack.values, np.array(expected))

    def test_seed_words_match_seed_sequence(self):
        rng = np.random.default_rng(2024)
        seeds = [0, 1, 2**32 - 1] + \
            [int(s) for s in rng.integers(0, 2**32, 10_000)]
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64)
                    for s in seeds]
        words = sensing.seed_words(seeds)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, np.array(expected))

    @pytest.mark.parametrize("rows", [
        1, sensing.BATCH_SEED_MIN_ROWS - 1, sensing.BATCH_SEED_MIN_ROWS,
        1000])
    @pytest.mark.parametrize("cell", [0, 1, 37, 4294])
    def test_stack_rows_are_single_seed_draws(self, geometry, rows, cell):
        # Cell seeds cell_seed + t, as the Monte Carlo sweeps use them;
        # cell 4294 sits just below 2**32.
        cell_seed = 11 + CELL_SEED_STRIDE * cell
        self.assert_rows_are_single_seed_draws(
            self.make_measurement(geometry),
            list(range(cell_seed, cell_seed + rows)))

    @pytest.mark.parametrize("seeds", [
        list(range(100)) + [2**32, 2**32 - 1],
        list(range(100)) + [2**64 + 5, 2**32 - 1],
        list(range(2**32 - 50, 2**32 + 50))])
    def test_multi_word_seeds_fall_back(self, geometry, seeds):
        self.assert_rows_are_single_seed_draws(
            self.make_measurement(geometry), seeds)

    @pytest.mark.parametrize("seed", [-1, [-1], list(range(99)) + [-1]])
    def test_negative_seed_rejected(self, geometry, seed):
        with pytest.raises(ValueError):
            sensing.add_noise(self.make_measurement(geometry), 20.0, seed)

    def test_constant_vector_rejected(self, geometry):
        mv = MeasurementVector(
            values=np.full(geometry.channel_count, 1.5), geometry=geometry)
        with pytest.raises(ZeroSignalPower):
            sensing.add_noise(mv, 20.0, 0)

    def test_rejects_a_stack(self, geometry):
        # Row 0 alone used to come back, with sigma set by all three rows.
        mv = self.make_measurement(geometry)
        stack = MeasurementVector(
            values=np.vstack([mv.values, 2 * mv.values, 3 * mv.values]),
            geometry=geometry)
        with pytest.raises(ValueError, match="not a stack"):
            sensing.add_noise(stack, 20.0, 0)

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
        got = integrated_power_transmission(scene, params, length)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_monotone_length_bound_value(self, rf_wavelength):
        bound = monotonic_length_bound(rf_wavelength)
        assert bound == pytest.approx(0.0528022, rel=1e-4)
        assert abs(bound - 0.358 * rf_wavelength) < 1e-3 * rf_wavelength

    def test_sinc_response_limits(self):
        length = 0.3
        assert sinc_response(0.0, length) == pytest.approx(length)
        dk = 17.0
        x = np.linspace(0.0, length, 200_001)
        oracle = np.trapezoid(np.cos(dk * x), x)
        assert sinc_response(dk, length) == pytest.approx(
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
                integrated_power_transmission(scene, params, length))
        diffs = np.diff(values)
        if monotone:
            assert np.all(diffs < 0) or np.all(diffs > 0)
        else:
            assert np.any(diffs > 0) and np.any(diffs < 0)

    def test_requires_single_target(self, params, two_target):
        with pytest.raises(ValueError):
            integrated_power_transmission(two_target, params, 0.05)


class TestSerializationRoundtrip:
    def test_values_are_immutable(self, geometry):
        mv = MeasurementVector(values=np.zeros(geometry.channel_count),
                               geometry=geometry)
        with pytest.raises(ValueError):
            mv.values[0] = 1.0
