import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.integrate import fixed_quad, quad

from rydberg_doa import physics, scenarios, sensing
from rydberg_doa.config import load_config
from rydberg_doa.errors import (
    NonPositiveFluorescence,
    SingularPoint,
    ZeroSignalPower,
)
from rydberg_doa.experiments import CELL_SEED_STRIDE
from rydberg_doa.physics import PlaneWave, RfScene
from rydberg_doa.sensing import (
    FluorescenceProfile,
    MeasurementVector,
    SensorGeometry,
)

from hypothesis_profiles import examples
from oracles import (
    absorption_exact_per_scene,
    field_intensity_per_scene,
    fluorescence_readout_per_scene,
    integrated_power_transmission,
    monotonic_length_bound,
    panel_depth,
    sinc_response,
)


ROOT = Path(__file__).resolve().parent.parent


def noise_row(seed: int, k: int) -> np.ndarray:
    """The noise rule from numpy alone: row seed % 32 of the 32-row block
    that default_rng(seed // 32) draws."""
    block = np.random.default_rng(seed // 32).standard_normal((32, k))
    return block[seed % 32]


def phased_scene(angles_deg, phases):
    """scenarios.scene_from_angles' scene with its targets at phases."""
    scene = scenarios.scene_from_angles(angles_deg)
    return replace(scene, signals=[
        replace(s, phase=ph)
        for s, ph in zip(scene.signals, phases, strict=True)])


# Largest gap between the readout and the per-scene quadrature oracle
# (oracles.fluorescence_readout_per_scene): for the measurements a share
# of the oracle's channel std, for the depth a share of each depth.
# Measured at most 6.8e-6 and 6.1e-9 over 1-3 targets at LO ratios 2-50,
# cells of 8-16 lambda, windows of 0.25, 0.3 and 1 lambda and 3 or 257
# points per lambda; the largest gaps come from the three-target scene's
# fastest beats at LO ratio 50.
ORACLE_READOUT_TOL = 2e-5
ORACLE_DEPTH_RTOL = 2e-8

# Largest error of the readout against scipy.quad window integrals, as a
# share of the channel std, on every bundled geometry and on fig3c's
# scene with windows of 0.137, 0.3, 0.5 and 1 lambda, at LO ratios 1-50.
READOUT_TOL = 3e-6

# The 4-node Gauss-Legendre rule's error on one panel of width h is
# GAUSS_ERROR * h**9 * f''(xi) for some xi in the panel, with
# GAUSS_ERROR = (4!)**4 / (9 * (8!)**3) (Davis & Rabinowitz 1984).
GAUSS_ERROR = 24.0**4 / (9 * 40320.0**3)


def lo_only_scene(amplitude=4e-5):
    return RfScene(lo=PlaneWave(amplitude, 0.0, np.pi / 2))


class TestGeometry:
    def test_derived_channel_count(self, geometry, rf_wavelength):
        geom = geometry
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
        # cell edge, up to rounding. Lower edge j is fl(fl(w/2 + s*j) - w/2)
        # and rounding is monotone, so no lower edge falls below 0 exactly:
        # channel_measurements clips only the upper edges.
        for cells, width, pitch in itertools.product(
                (1.5, 4.0, 16.0, 250.0), (0.25, 0.1, 1.0, 0.15),
                (0.25, 0.15, 0.2, 0.01, 1 / 3)):
            geom = SensorGeometry(cells * rf_wavelength,
                                  width * rf_wavelength,
                                  pitch * rf_wavelength)
            lo, hi = geom.window_edges
            assert lo[0] == 0.0
            assert (lo >= 0.0).all()
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
    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 32, 257])
    def test_depth_is_running_sum_of_interval_quadratures(
            self, params, two_target, geometry, points_per_wavelength):
        # the depth at each node is the running sum of scipy's quad_vec
        # integrals of alpha over the grid intervals; at 2 and 3 points per
        # lambda each interval spans two panels
        geom = replace(geometry,
                       grid_points_per_rf_wavelength=points_per_wavelength)
        got = sensing.propagate_probe(two_target, geom, params)
        want, _ = fluorescence_readout_per_scene(two_target, geom, params)
        assert np.array_equal(got.positions, want.positions)
        assert got.optical_depth[0] == 0.0
        np.testing.assert_allclose(got.optical_depth, want.optical_depth,
                                   rtol=ORACLE_DEPTH_RTOL, atol=0)

    def test_exact_for_cubics(self):
        # alpha = 1 + 2x - 3x^2 + 4x^3 on an uneven grid: the running sum of
        # the rule's interval integrals is its antiderivative
        # x + x^2 - x^3 + x^4 at every node, to rounding, on one panel per
        # interval or on several
        rng = np.random.default_rng(5)
        x = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 40))))
        for max_panel in (1.0, 0.01):
            steps = sensing.gauss_legendre(
                lambda u: 1 + 2 * u - 3 * u**2 + 4 * u**3, x[:-1], x[1:],
                max_panel)
            depth = np.concatenate(([0.0], np.cumsum(steps)))
            np.testing.assert_allclose(depth, x + x**2 - x**3 + x**4,
                                       rtol=1e-14, atol=1e-16)

    def test_transparent_cell(self, params, two_target, geometry):
        # so thin a vapor that its absorption scale underflows to zero
        vacuum = replace(params, atom_density=1e-300)
        assert physics.linearization_constants(vacuum)[0] == 0.0
        profile = sensing.propagate_probe(two_target, geometry, vacuum)
        np.testing.assert_array_equal(profile.optical_depth, 0.0)
        np.testing.assert_array_equal(profile.fluorescence, 1.0)

    def test_uniform_absorber_closed_form(self, params, geometry):
        # the LO alone absorbs alpha_dc everywhere
        scene = lo_only_scene()
        alpha = physics.absorption_dc(params, scene)
        profile = sensing.propagate_probe(scene, geometry, params)
        np.testing.assert_allclose(profile.optical_depth,
                                   alpha * profile.positions, rtol=1e-13)
        expected = np.exp(-alpha * geometry.cell_length)
        assert profile.fluorescence[-1] == pytest.approx(expected, rel=1e-8)

    def test_transmission_matches_quadrature(self, params, two_target,
                                             geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(two_target, geometry, params)
        depth, _ = quad(lambda x: float(alpha(x)), 0.0,
                        geometry.cell_length, limit=400)
        assert profile.fluorescence[-1] == pytest.approx(np.exp(-depth),
                                                         rel=1e-6)

    def test_fluorescence_proportional(self, params, two_target, geometry):
        # the profile holds the optical depth on the grid; its image, the
        # unit-power probe's, is derived
        profile = sensing.propagate_probe(two_target, geometry, params)
        assert [f.name for f in fields(profile)] == [
            "positions", "optical_depth"]
        np.testing.assert_array_equal(
            profile.positions, geometry.grid(two_target.rf_wavelength))
        np.testing.assert_array_equal(profile.fluorescence,
                                      np.exp(-profile.optical_depth))

    def test_profile_matches_ode_solver(self, params, two_target, geometry):
        from scipy.integrate import solve_ivp

        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        profile = sensing.propagate_probe(two_target, geometry, params)
        # high-order method: the oracle's dense-output noise must sit well
        # below the ~1e-7 attenuation scale being compared
        sol = solve_ivp(lambda x, p: -alpha(np.array([x]))[0] * p,
                        (0.0, geometry.cell_length), [1.0], method="DOP853",
                        t_eval=profile.positions, rtol=1e-12, atol=1e-16)
        depth = 1.0 - profile.fluorescence
        depth_oracle = 1.0 - sol.y[0]
        np.testing.assert_allclose(depth[1:], depth_oracle[1:],
                                   rtol=1e-4, atol=1e-12)
        assert depth[-1] == pytest.approx(depth_oracle[-1], rel=1e-4)


class TestRecoverAlpha:
    def test_constant_profile_gives_zero(self):
        depth = sensing.recover_alpha(np.full(101, 0.8))
        assert depth.shape == (101,)
        np.testing.assert_allclose(depth, 0.0, atol=1e-12)

    def test_roundtrip_recovers_exact_absorption(self, params, two_target,
                                                 geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        x = geometry.grid(two_target.rf_wavelength)
        profile = sensing.propagate_probe(two_target, geometry, params)
        depth = sensing.recover_alpha(profile.fluorescence)
        # a panel mean, the depth's increment over the panel's width, sits
        # within the readout's error of the absorption's mean over the
        # panel by quadrature, on every panel
        truth = np.array([quad(lambda u: float(alpha(u)), a, b)[0] / (b - a)
                          for a, b in zip(x[:-1], x[1:])])
        err = np.abs(np.diff(depth) / np.diff(x) - truth)
        assert err.max() / np.abs(truth).max() < 1e-3
        scale = np.abs(
            physics.modulation_amplitudes(params, two_target)).sum()
        assert err.max() / scale < 5e-4

    def test_kappa_cancels(self, params, two_target, geometry):
        profile = sensing.propagate_probe(two_target, geometry, params)
        outs = []
        for kappa in (0.1, 1.0, 10.0):
            outs.append(sensing.recover_alpha(kappa * profile.fluorescence))
        # log(kappa*P(0)) - log(kappa*P) leaves only rounding noise against
        # -log(P)
        tol = 1e-5 * np.abs(outs[1]).max()
        np.testing.assert_allclose(outs[0], outs[1], atol=tol, rtol=0)
        np.testing.assert_allclose(outs[2], outs[1], atol=tol, rtol=0)

    def test_rejects_nonpositive(self):
        power = np.linspace(1, 0, 11)  # hits zero at the end
        with pytest.raises(NonPositiveFluorescence):
            sensing.recover_alpha(power)


def tau_test(x):
    """Analytic optical depth of alpha_test."""
    return 2.0 * x + np.sin(37.0 * x - 0.4) / 37.0 \
        - 0.1 * np.cos(91.0 * x) / 91.0


def alpha_test(x):
    return 2.0 + np.cos(37.0 * x - 0.4) + 0.1 * np.sin(91.0 * x)


# A bound on the eighth derivative of alpha_test.
ALPHA_TEST_EIGHTH = 37.0**8 + 0.1 * 91.0**8


class TestChannelMeasurements:
    def test_constant_absorption_window_area(self, params, geometry):
        # the LO alone absorbs alpha_dc everywhere
        scene = lo_only_scene()
        values = sensing.channel_measurements(scene, geometry, params)
        np.testing.assert_allclose(
            values, physics.absorption_dc(params, scene)
            * geometry.window_width, rtol=1e-12)

    def test_contiguous_windows_match_log_power_ratio(self, params,
                                                      two_target, geometry):
        lam = two_target.rf_wavelength
        geom = geometry  # contiguous: width == pitch
        x = geom.grid(lam)
        profile = sensing.propagate_probe(two_target, geom, params)
        values = sensing.channel_measurements(two_target, geom, params)
        image = profile.fluorescence
        for j, (a, b) in enumerate(zip(*geom.window_edges)):
            p_in = np.interp(a, x, image)
            p_out = np.interp(b, x, image)
            assert values[j] == pytest.approx(-np.log(p_out / p_in),
                                              rel=1e-6)

    def test_single_cosine_matches_antiderivative(self, geometry):
        # four panels a window
        dk, dphi, amp = 40.0, 0.6, 2.0
        lo, hi = geometry.window_edges
        values = sensing.gauss_legendre(
            lambda x: amp * np.cos(dk * x - dphi), lo, hi,
            geometry.window_width / 4)
        for j, (a, b) in enumerate(zip(lo, hi)):
            exact = amp * (np.sin(dk * b - dphi) - np.sin(dk * a - dphi)) / dk
            assert values[j] == pytest.approx(exact, rel=1e-8)

    def test_rejects_depth_not_on_positions(self):
        # a (2, 6) depth over 4 positions would otherwise be written at
        # positions it does not hold, and a profile holds one depth row
        x = np.linspace(0.0, 1.0, 4)
        for depth in (np.ones((2, 6)), np.ones(3), np.ones((2, 4))):
            with pytest.raises(ValueError, match="one value per position"):
                FluorescenceProfile(positions=x, optical_depth=depth)

    @pytest.mark.parametrize("lead", [(0,), (2, 0)])
    def test_empty_stack(self, geometry, lead):
        # a stack with no rows integrates to no rows of K channels
        lo, hi = geometry.window_edges
        values = sensing.gauss_legendre(lambda x: np.ones(lead + x.shape),
                                        lo, hi, geometry.window_width)
        assert values.shape == lead + (geometry.channel_count,)

    @staticmethod
    def assert_stack_integrates(lo, hi, max_panel, tau, alpha, eighth):
        """Integrate s * alpha, s = 0.5, 1 and 2, as one stack over the
        intervals [lo_i, hi_i] on panels of at most max_panel. Each row
        equals the call on its row alone, bit for bit. Interval i of a row
        is s * (tau(hi_i) - tau(lo_i)) within the rule's error on its
        panels, at most (hi_i - lo_i) * max_panel**8 * GAUSS_ERROR times a
        bound on |s * alpha''|, plus rounding."""
        scales = np.array([0.5, 1.0, 2.0])
        values = sensing.gauss_legendre(
            lambda x: scales.reshape((3,) + (1,) * x.ndim) * alpha(x),
            lo, hi, max_panel)
        for row, s in zip(values, scales):
            assert np.array_equal(row, sensing.gauss_legendre(
                lambda x: s * alpha(x), lo, hi, max_panel))
        scales = scales[:, None]
        # alpha rounds where it is evaluated, tau at both ends, and the sum
        # of a few dozen weighted terms: well inside 64 eps of its scale
        rounding = 64 * np.finfo(float).eps * max(
            1.0, np.abs(scales * tau(np.concatenate((lo, hi)))).max())
        err = np.abs(values - scales * (tau(hi) - tau(lo)))
        bound = scales * (hi - lo) * max_panel**8 * GAUSS_ERROR * eighth \
            + rounding
        assert np.all(err <= bound), np.max(err / bound)

    @pytest.mark.parametrize("cell_wavelengths", [8, 11, 16])
    def test_fluorescence_scene_bit_exact(self, params, cell_wavelengths):
        # the windows of an LO-ratio sweep cell on lambda/4 panels; tau is
        # the optical depth of the linearized absorption of three targets,
        # a closed form
        scene = scenarios.scene_from_angles((-30.0, 5.0, 40.0),
                                            lo_ratio=7.0)
        lam = scene.rf_wavelength
        geom = SensorGeometry(cell_wavelengths * lam, lam / 4, lam / 4)
        dc = physics.absorption_dc(params, scene)
        mods = physics.modulation_amplitudes(params, scene)
        dks, dphis = scene.delta_ks, scene.delta_phis

        def tau(x):
            return dc * x + sum(m * np.sin(dk * x - dphi) / dk
                                for m, dk, dphi in zip(mods, dks, dphis))

        def alpha(x):
            return physics.absorption_linearized(params, scene, x, mods)

        self.assert_stack_integrates(*geom.window_edges, lam / 4, tau, alpha,
                                     np.abs(mods * dks**8).sum())

    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 5, 16, 257])
    def test_coarse_and_odd_grids_bit_exact(self, rf_wavelength,
                                            points_per_wavelength):
        # the depth's grid intervals: at 2 and 3 points per lambda each
        # spans two lambda/4 panels, from 4 points on one
        lam = rf_wavelength
        geom = SensorGeometry(6 * lam, 0.3 * lam, 0.2 * lam,
                              points_per_wavelength)
        x = geom.grid(rf_wavelength)
        self.assert_stack_integrates(x[:-1], x[1:], lam / 4, tau_test,
                                     alpha_test, ALPHA_TEST_EIGHTH)

    def test_non_uniform_positions_bit_exact(self, geometry, rf_wavelength):
        rng = np.random.default_rng(11)
        inner = rng.uniform(0.0, geometry.cell_length, 700)
        x = np.sort(np.concatenate(([0.0, geometry.cell_length], inner)))
        self.assert_stack_integrates(x[:-1], x[1:], rf_wavelength / 4,
                                     tau_test, alpha_test, ALPHA_TEST_EIGHTH)

    def test_windows_clipped_at_domain_ends_bit_exact(self, params,
                                                      two_target):
        # the last window overhangs the cell by less than the 1e-9 of a
        # pitch that SensorGeometry allows: it is integrated up to the
        # cell's end, in an LO row as alone
        lam = two_target.rf_wavelength
        geom = SensorGeometry(4 * lam * (1 - 1e-11), lam / 4, lam / 4)
        lo, hi = geom.window_edges
        assert geom.channel_count == 16 and hi[-1] > geom.cell_length
        scenes = [scenarios.with_lo_ratio(two_target, r) for r in (2, 20)]
        values = sensing.channel_measurements(
            two_target, geom, params, [s.lo.amplitude for s in scenes])
        for row, scene in zip(values, scenes):
            assert np.array_equal(row, sensing.channel_measurements(
                scene, geom, params))
            assert np.array_equal(row, sensing.gauss_legendre(
                lambda x: physics.absorption_exact(params, scene, x), lo,
                np.minimum(hi, geom.cell_length), lam / 4))

    def test_panels_are_scipy_fixed_quad(self, rf_wavelength):
        # each interval is the sum over its equal panels of scipy's
        # 4-point fixed_quad, to rounding: one panel on windows up to
        # lambda/4 wide (lambda/4 itself to the 1e-9 tolerance), two on
        # 0.3 lambda and four on lambda
        lam = rf_wavelength
        for width, panels in ((0.137, 1), (0.25, 1), (0.3, 2), (1.0, 4)):
            geom = SensorGeometry(6 * lam, width * lam, lam / 4)
            lo, hi = geom.window_edges
            want = [sum(fixed_quad(alpha_test, a + p * (b - a) / panels,
                                   a + (p + 1) * (b - a) / panels, n=4)[0]
                        for p in range(panels)) for a, b in zip(lo, hi)]
            np.testing.assert_allclose(
                sensing.gauss_legendre(alpha_test, lo, hi, lam / 4), want,
                rtol=1e-14, atol=0)


class TestReadoutAccuracy:
    """The readout against scipy.quad window integrals of the exact
    absorption above its LO-only background, as a share of the channel
    std."""

    RATIOS = (1.0, 2.0, 5.0, 20.0, 50.0)

    @staticmethod
    def error(name, ratio, width_wavelengths=None,
              points_per_wavelength=None):
        """Largest error over the windows of a bundled config's scene and
        geometry at an LO ratio, with the window width (in lambda) or the
        grid density replaced when given."""
        scenario = load_config(ROOT / "configs" / f"{name}.json").scenario
        params = scenario.params
        scene = scenarios.with_lo_ratio(scenario.scene, ratio)
        geom = scenario.geometry
        if width_wavelengths is not None:
            geom = replace(geom, window_width=width_wavelengths
                           * scene.rf_wavelength)
        if points_per_wavelength is not None:
            geom = replace(geom, grid_points_per_rf_wavelength=(
                points_per_wavelength))
        return TestReadoutAccuracy.scene_error(scene, geom, params)

    @staticmethod
    def scene_error(scene, geom, params):
        """Largest error over the windows of the scene's readout on geom."""
        dc = physics.absorption_dc(params, scene)
        lo, hi = geom.window_edges
        truth = np.array([
            quad(lambda x: physics.absorption_exact(params, scene, x) - dc,
                 a, b, epsabs=0, epsrel=1e-10, limit=200)[0]
            for a, b in zip(lo, np.minimum(hi, geom.cell_length))])
        return np.abs(sensing.simulate_measurements(
            scene, geom, params).values - truth).max() / truth.std()

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in (ROOT / "configs").glob("*.json")))
    def test_bundled_geometries_match_quadrature(self, name):
        errors = [self.error(name, ratio) for ratio in self.RATIOS]
        assert max(errors) <= READOUT_TOL, errors

    @pytest.mark.parametrize("width_wavelengths", [0.137, 0.3, 0.5, 1.0])
    def test_window_widths_match_quadrature(self, width_wavelengths):
        # one panel a window at 0.137 lambda, two at 0.3 and 0.5, four at 1
        errors = [self.error("fig3c", ratio, width_wavelengths)
                  for ratio in self.RATIOS]
        assert max(errors) <= READOUT_TOL, errors

    # Measured 1.3e-5, 1.8e-5 and 2.6e-5 at -85 deg, and 6.3e-6, 6.7e-6
    # and 7.6e-6 at -60 deg, at LO ratios 1, 20 and 50.
    @pytest.mark.xfail(strict=True, reason=(
        "the FOUND line in CHANGES.md on sensing._absorption_integrals: "
        "panels are capped at lambda/4 whatever the fastest beat, which "
        "nears 2k for a target near -90 deg with the LO at +90 deg"))
    @pytest.mark.parametrize("bearing_deg", [-85.0, -60.0])
    def test_bearings_far_from_the_lo_match_quadrature(self, params,
                                                       bearing_deg):
        # one target, LO at 90 deg, lambda/4 windows on an 8 lambda cell
        scene = scenarios.scene_from_angles((bearing_deg,))
        lam = scene.rf_wavelength
        geom = SensorGeometry(8 * lam, lam / 4, lam / 4)
        errors = [self.scene_error(scenarios.with_lo_ratio(scene, ratio),
                                   geom, params)
                  for ratio in (1.0, 20.0, 50.0)]
        assert max(errors) <= READOUT_TOL, errors

    @pytest.mark.parametrize("points_per_wavelength, bound",
                             [(4096, 1e-6), (256, 2e-4), (32, 3e-5),
                              (16, 5e-2)])
    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_windows_match_quadrature(self, ratio, points_per_wavelength,
                                      bound):
        # the densities and bounds a grid-based readout was held to: the
        # windows no longer read the grid, and every bound still holds,
        # tightened to READOUT_TOL
        assert self.error("fig3c", ratio, points_per_wavelength=(
            points_per_wavelength)) <= min(bound, READOUT_TOL)

    @pytest.mark.parametrize("width_wavelengths", [0.3, 0.137])
    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_default_density_with_edges_between_grid_points(
            self, ratio, width_wavelengths):
        # 0.3 lambda and 0.137 lambda windows put their edges between grid
        # points, which the windows' quadrature never reads
        assert SensorGeometry.grid_points_per_rf_wavelength == 32
        assert self.error("fig3c", ratio, width_wavelengths) <= READOUT_TOL

    @pytest.mark.parametrize("width_wavelengths", [0.25, 0.3, 1.0])
    def test_windows_do_not_depend_on_the_grid(self, width_wavelengths):
        # the grid density sets only how finely the image is sampled
        scenario = load_config(ROOT / "configs" / "fig3c.json").scenario
        scene = scenario.scene
        rows = [scenarios.with_lo_ratio(scene, r).lo.amplitude
                for r in (2, 20)]
        geom = replace(scenario.geometry, window_width=width_wavelengths
                       * scene.rf_wavelength)
        for lo_amplitudes in (None, rows):
            want = sensing.simulate_measurements(scene, geom, scenario.params,
                                                 lo_amplitudes)
            for n in (2, 32, 256):
                got = sensing.simulate_measurements(scene, replace(
                    geom, grid_points_per_rf_wavelength=n), scenario.params,
                    lo_amplitudes)
                assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_error_falls_with_the_panel_cap(self, ratio):
        # lambda-wide windows on panels of at most lambda, lambda/2,
        # lambda/4 and lambda/8: at least 100x less error per halving of
        # the cap, where a fourth-order rule would give 16x
        scenario = load_config(ROOT / "configs" / "fig3c.json").scenario
        params = scenario.params
        scene = scenarios.with_lo_ratio(scenario.scene, ratio)
        lam = scene.rf_wavelength
        geom = replace(scenario.geometry, window_width=lam)
        dc = physics.absorption_dc(params, scene)

        def alpha(x):
            return physics.absorption_exact(params, scene, x) - dc

        lo, hi = geom.window_edges
        hi = np.minimum(hi, geom.cell_length)
        truth = np.array([quad(alpha, a, b, epsabs=0, epsrel=1e-12,
                               limit=200)[0] for a, b in zip(lo, hi)])
        errors = [np.abs(sensing.gauss_legendre(alpha, lo, hi, lam / n)
                         - truth).max() / truth.std() for n in (1, 2, 4, 8)]
        assert all(e >= 100 * f for e, f in zip(errors, errors[1:])), errors


class TestPanelReadoutEquivalence:
    """The depth read straight off the image's log (recover_alpha) against
    the panel route it replaced (oracles.panel_depth): panel means
    -diff(log F) / diff(x) and their running integral. Both are compared
    by their rise over each window, read off the grid by np.interp."""

    @staticmethod
    def rises(profile, geometry, depth):
        x = profile.positions
        lo, hi = geometry.window_edges
        hi = np.minimum(hi, x[-1])
        return np.array([np.interp(hi, x, row) - np.interp(lo, x, row)
                         for row in np.reshape(depth, (-1, x.size))])

    def assert_routes_match(self, profile, geometry, rtol):
        got = self.rises(profile, geometry,
                         sensing.recover_alpha(profile.fluorescence))
        want = self.rises(profile, geometry, panel_depth(profile))
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= rtol * scale)

    def test_random_stacks_match_within_1e_10(self, params):
        # 1-3 targets, three LO ratios in 0.5-60, cells of 1-19 lambda
        # and 16-1024 points per lambda. F[0] = 1 makes the new depth
        # exactly -log F; the panel route rounds wherever (a / b) * b != a.
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(1, 4))
            base = phased_scene(rng.uniform(-70.0, 70.0, n),
                                rng.uniform(0, 6.3, n))
            ratios = np.exp(rng.uniform(np.log(0.5), np.log(60), 3))
            lam = base.rf_wavelength
            geom = SensorGeometry(int(rng.integers(1, 20)) * lam, lam / 4,
                                  lam / 4, int(rng.choice([16, 64, 256,
                                                           1024])))
            for ratio in ratios:
                self.assert_routes_match(sensing.propagate_probe(
                    scenarios.with_lo_ratio(base, ratio), geom, params),
                    geom, 1e-10)

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in (ROOT / "configs").glob("*.json")))
    def test_bundled_configs_bit_exact(self, name):
        scenario = load_config(ROOT / "configs" / f"{name}.json").scenario
        geom = scenario.geometry
        self.assert_routes_match(sensing.propagate_probe(
            scenario.scene, geom, scenario.params), geom, 0)

    def test_depth_is_minus_log_probe_power(self, params, two_target,
                                            geometry):
        for scene in [two_target] + [scenarios.with_lo_ratio(two_target, r)
                                     for r in (2, 50)]:
            profile = sensing.propagate_probe(scene, geometry, params)
            assert np.array_equal(sensing.recover_alpha(
                profile.fluorescence), -np.log(profile.fluorescence))


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

    @pytest.mark.parametrize("alpha_dc", [0.0, np.zeros(3)])
    def test_rejects_wrong_channel_count(self, geometry, alpha_dc):
        # MeasurementVector owns the rule, for one vector and for a stack.
        values = np.zeros(np.shape(alpha_dc) + (geometry.channel_count + 1,))
        with pytest.raises(ValueError,
                           match="^values length must equal channel_count$"):
            sensing.calibrate(values, geometry, alpha_dc)

    def test_pipeline_matches_prediction(self, params, two_target, geometry):
        simulated = sensing.simulate_measurements(two_target, geometry,
                                                  params)
        predicted = sensing.predicted_measurements(two_target, geometry,
                                                   params)
        scale = np.max(np.abs(predicted.values))
        # full pipeline carries linearization + numerical error
        grid = simulated.geometry.grid(two_target.rf_wavelength)
        resid = physics.absorption_exact(
            params, two_target, grid) - physics.absorption_linearized(
            params, two_target, grid,
            physics.modulation_amplitudes(params, two_target))
        eps_lin = np.max(np.abs(resid)) * geometry.window_width
        assert np.max(np.abs(simulated.values - predicted.values)) <= \
            eps_lin + 1e-3 * scale


class TestStackedReadout:
    """A scene's exact readout at several LO amplitudes, as the rows of one
    call: every row equals the one-scene call at its amplitude bit for bit
    (test_every_lo_row_is_its_one_scene_call draws the general case), and
    every one-scene readout agrees with the per-scene quadrature oracle."""

    RATIOS = (2.0, 4.7, 13.0, 50.0)
    BEARINGS = {1: (-35.0,), 2: (-20.0, 25.0), 3: (-50.0, 5.0, 40.0)}

    @staticmethod
    def base(n_targets):
        return phased_scene(TestStackedReadout.BEARINGS[n_targets],
                            (0.3, 3.5, 5.4)[:n_targets])

    @staticmethod
    def rows(scene, ratios):
        """The scene at each LO ratio, and those scenes' LO amplitudes."""
        scenes = [scenarios.with_lo_ratio(scene, r) for r in ratios]
        return scenes, [s.lo.amplitude for s in scenes]

    @staticmethod
    def assert_rows_match(scene, ratios, geometry, params):
        scenes, amplitudes = TestStackedReadout.rows(scene, ratios)
        measurement = sensing.simulate_measurements(scene, geometry, params,
                                                    amplitudes)
        assert measurement.values.shape == (len(scenes),
                                            geometry.channel_count)
        for row, at in zip(measurement.values, scenes):
            want = sensing.simulate_measurements(at, geometry, params)
            assert np.array_equal(row, want.values)
            TestStackedReadout.assert_matches_oracle(
                sensing.propagate_probe(at, geometry, params), want, at,
                geometry, params)

    @staticmethod
    def assert_matches_oracle(profile, measurement, scene, geometry, params):
        want_profile, want = fluorescence_readout_per_scene(
            scene, geometry, params)
        assert np.array_equal(profile.positions, want_profile.positions)
        np.testing.assert_allclose(profile.optical_depth,
                                   want_profile.optical_depth,
                                   rtol=ORACLE_DEPTH_RTOL, atol=0)
        assert measurement.values.shape == want.values.shape
        assert np.abs(measurement.values - want.values).max() <= \
            ORACLE_READOUT_TOL * want.values.std()

    @pytest.mark.parametrize("points_per_wavelength", [3, 257])
    @pytest.mark.parametrize("cell_wavelengths", [8, 11, 16])
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_rows_equal_per_scene_readout(self, params, n_targets,
                                          cell_wavelengths,
                                          points_per_wavelength):
        scene = self.base(n_targets)
        lam = scene.rf_wavelength
        geom = SensorGeometry(cell_wavelengths * lam, lam / 4, lam / 4,
                              points_per_wavelength)
        self.assert_rows_match(scene, self.RATIOS, geom, params)

    @pytest.mark.parametrize("width_wavelengths", [0.3, 1.0])
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_split_windows_rows_equal_per_scene(self, params, n_targets,
                                                width_wavelengths):
        # windows of two and of four lambda/4 panels
        scene = self.base(n_targets)
        lam = scene.rf_wavelength
        geom = SensorGeometry(8 * lam, width_wavelengths * lam, lam / 4, 3)
        self.assert_rows_match(scene, self.RATIOS, geom, params)

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_physics_rows_equal_per_scene(self, params, n_targets):
        scenes, amplitudes = self.rows(self.base(n_targets), self.RATIOS)
        x = np.linspace(-0.3, 0.9, 1001)
        field = physics.field_intensity(scenes[0], x, amplitudes)
        alpha = physics.absorption_exact(params, scenes[0], x, amplitudes)
        assert field.shape == alpha.shape == (len(scenes), x.size)
        for c, scene in enumerate(scenes):
            assert np.array_equal(field[c],
                                  field_intensity_per_scene(scene, x))
            assert np.array_equal(alpha[c], absorption_exact_per_scene(
                params, scene, x))
        assert physics.field_intensity(scenes[0], 0.25,
                                       amplitudes[:1]).shape == (1,)
        assert isinstance(physics.field_intensity(scenes[0], 0.25), float)

    @pytest.mark.parametrize("model", ["exact"])
    def test_single_scene_is_the_per_scene_readout(self, params, geometry,
                                                   two_target, model):
        self.assert_matches_oracle(
            sensing.propagate_probe(two_target, geometry, params),
            sensing.simulate_measurements(two_target, geometry, params),
            two_target, geometry, params)

    def test_stack_of_one(self, params, geometry, two_target):
        # one row at the scene's own LO amplitude is the one-scene call
        got = sensing.simulate_measurements(two_target, geometry, params,
                                            [two_target.lo.amplitude])
        want = sensing.simulate_measurements(two_target, geometry, params)
        assert got.values.shape == (1, geometry.channel_count)
        assert np.array_equal(got.values[0], want.values)

    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 5, 257])
    def test_channel_rows_equal_per_scene(self, params,
                                          points_per_wavelength):
        # windows of one, two and four panels, at any grid density: each
        # row equals its scene alone, and the default density's values
        scenes, amplitudes = self.rows(self.base(2), self.RATIOS)
        lam = scenes[0].rf_wavelength
        for width in (0.25, 0.3, 1.0):
            geom = SensorGeometry(4 * lam, width * lam, lam / 4,
                                  points_per_wavelength)
            got = sensing.channel_measurements(scenes[0], geom, params,
                                               amplitudes)
            for row, scene in zip(got, scenes):
                assert np.array_equal(row, sensing.channel_measurements(
                    scene, geom, params))
                assert np.array_equal(row, sensing.channel_measurements(
                    scene, replace(geom, grid_points_per_rf_wavelength=32),
                    params))

    def test_nonpositive_row_rejects_the_stack(self):
        power = np.ones((3, 11))
        power[1, -1] = 0.0
        with pytest.raises(NonPositiveFluorescence,
                           match="fluorescence must be strictly positive"):
            sensing.recover_alpha(power)

    def test_singular_row_rejects_the_stack(self, params, geometry):
        _, beta = physics.linearization_constants(params)
        amplitude = np.sqrt(params.coupling_detuning / beta)
        while params.coupling_detuning - beta * amplitude**2 != 0:
            amplitude = np.nextafter(amplitude, 1.0)
        singular = lo_only_scene(float(amplitude))
        with pytest.raises(SingularPoint) as single:
            fluorescence_readout_per_scene(singular, geometry, params)
        with pytest.raises(SingularPoint) as stacked:
            sensing.simulate_measurements(lo_only_scene(), geometry, params,
                                          [4e-5, float(amplitude)])
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("lo_amplitudes", [[4e-5, 0.0], [-1e-5],
                                               [np.nan, 4e-5]])
    def test_rejects_a_nonpositive_lo_amplitude(self, params, geometry,
                                                lo_amplitudes):
        # RfScene's own rule for its LO amplitude, row by row
        with pytest.raises(ValueError,
                           match="^LO amplitude must be strictly positive$"):
            sensing.simulate_measurements(lo_only_scene(), geometry, params,
                                          lo_amplitudes)


@st.composite
def lo_row_cases(draw):
    """A scene of 1-3 targets, 1-5 LO amplitudes at ratios 0.5-1000 of
    its summed signal amplitude, and a geometry of windows of 1-4
    lambda/4 panels on a 2-6 lambda cell."""
    n = draw(st.integers(1, 3))
    scene = phased_scene(
        draw(st.lists(st.floats(-85.0, 85.0), min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.0, 6.3), min_size=n, max_size=n)))
    ratios = draw(st.lists(st.floats(0.5, 1000.0), min_size=1, max_size=5))
    lam = scene.rf_wavelength
    width = draw(st.floats(0.05, 1.0)) * lam
    geometry = SensorGeometry(draw(st.integers(2, 6)) * lam, width, lam / 4)
    return scene, ratios, geometry


def _one_ulp_case():
    # At this ratio, numpy's scalar ** 2 (C pow) and the array's x * x
    # differ by one ULP on the LO-only intensity response.
    scene = scenarios.scene_from_angles((0.0,))
    lam = scene.rf_wavelength
    return scene, [193.2650243163149], SensorGeometry(2 * lam, lam / 4,
                                                      lam / 4)


@settings(max_examples=examples(60))
@given(case=lo_row_cases())
@example(case=_one_ulp_case())
def test_every_lo_row_is_its_one_scene_call(params, case):
    # Every row of the exact model's five entry points equals the
    # one-scene call at its LO amplitude bit for bit, and a one-row call
    # equals the scalar call.
    scene, ratios, geometry = case
    scenes = [scenarios.with_lo_ratio(scene, r) for r in ratios]
    amplitudes = [s.lo.amplitude for s in scenes]
    x = np.linspace(0.0, geometry.cell_length, 97)
    calls = {
        "field_intensity": lambda at, lo: physics.field_intensity(at, x, lo),
        "absorption_exact": lambda at, lo: physics.absorption_exact(
            params, at, x, lo),
        "absorption_dc": lambda at, lo: physics.absorption_dc(params, at,
                                                              lo),
        "channel_measurements": lambda at, lo: sensing.channel_measurements(
            at, geometry, params, lo),
        "simulate_measurements": lambda at, lo: sensing.simulate_measurements(
            at, geometry, params, lo).values,
    }
    for name, call in calls.items():
        rows = call(scene, amplitudes)
        assert np.shape(rows)[0] == len(scenes), name
        for row, at in zip(rows, scenes):
            assert np.array_equal(row, call(at, None)), name
        assert np.array_equal(call(scene, [scene.lo.amplitude])[0],
                              call(scene, None)), name


class TestPredictedMeasurements:
    def test_window_null_hides_target(self, params, rf_wavelength):
        # window width lambda puts a transform null exactly at dk = k
        lam = rf_wavelength
        geom = SensorGeometry(4 * lam, lam, lam / 4)
        scene = scenarios.scene_from_angles((0.0,))
        mv = sensing.predicted_measurements(scene, geom, params)
        mods = physics.modulation_amplitudes(params, scene)
        assert np.max(np.abs(mv.values)) < 1e-12 * np.abs(mods).max()

    def test_matches_integrated_linearized_profile(self, params, two_target):
        # the linearized absorption integrated over each window on lambda/16
        # panels
        lam = two_target.rf_wavelength
        geom = SensorGeometry(4 * lam, lam / 4, lam / 4)
        integrated = sensing.calibrate(
            sensing.gauss_legendre(
                lambda x: physics.absorption_linearized(
                    params, two_target, x,
                    physics.modulation_amplitudes(params, two_target)),
                *geom.window_edges, lam / 16),
            geom, physics.absorption_dc(params, two_target))
        predicted = sensing.predicted_measurements(two_target, geom, params)
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
        base, _ = sensing.analytic_model(geom, [dk], [0.3], [1.0])
        for q in (1, 2):
            shifted = dk + q * 2 * np.pi / geom.spacing
            phase = 0.3 + (shifted - dk) * geom.window_width / 2
            alias, _ = sensing.analytic_model(geom, [shifted], [phase],
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
    def test_quarter_wave_boundary_inclusive(self, geometry, rf_wavelength):
        report = sensing.check_sampling(geometry, rf_wavelength)
        assert report.spacing_ok and report.width_ok and report.compliant

    def test_half_wave_spacing_flagged(self, rf_wavelength):
        lam = rf_wavelength
        geom = SensorGeometry(4 * lam, lam / 4, lam / 2)
        report = sensing.check_sampling(geom, rf_wavelength)
        assert not report.spacing_ok
        assert report.width_ok

    def test_full_wave_window_flagged(self, rf_wavelength):
        lam = rf_wavelength
        geom = SensorGeometry(4 * lam, lam, lam / 4)
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

    @pytest.mark.parametrize("snr_db", [30.0, np.inf])
    def test_bad_seeds_rejected_at_any_snr(self, geometry, snr_db):
        # A noiseless run checks its seeds as a noisy one does.
        mv = self.make_measurement(geometry)
        with pytest.raises(ValueError):
            sensing.add_noise(mv, snr_db, -5)
        with pytest.raises(TypeError):
            sensing.add_noise(mv, snr_db, [1.5, -2])

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
        sigma2 = np.var(mv.values) / 10 ** (snr_db / 10)
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
        stack = sensing.add_noise(mv, 20.0, range(5, 8))
        assert stack.values.shape == (3, geometry.channel_count)
        for row, seed in zip(stack.values, (5, 6, 7)):
            single = sensing.add_noise(mv, 20.0, seed)
            np.testing.assert_array_equal(row, single.values)
            assert single.noise_sigma == stack.noise_sigma

    def assert_rows_follow_the_rule(self, mv, seeds, snr_db=20.0):
        stack = sensing.add_noise(mv, snr_db, seeds)
        assert stack.values.shape == (len(seeds), mv.geometry.channel_count)
        k = mv.geometry.channel_count
        expected = [mv.values + stack.noise_sigma * noise_row(int(s), k)
                    for s in seeds]
        np.testing.assert_array_equal(stack.values,
                                      np.array(expected).reshape(-1, k))
        return stack

    @pytest.mark.parametrize("rows", [1, 15, 16, 1000])
    @pytest.mark.parametrize("cell", [0, 1, 37, 4294])
    def test_stack_rows_are_single_seed_draws(self, geometry, rows, cell):
        # Cell seeds cell_seed + t as a range, as the Monte Carlo sweeps
        # pass them (the first starts mid-block, at row 11).
        mv = self.make_measurement(geometry)
        cell_seed = 11 + CELL_SEED_STRIDE * cell
        seeds = range(cell_seed, cell_seed + rows)
        stack = self.assert_rows_follow_the_rule(mv, seeds)
        for t in {0, rows // 2, rows - 1}:
            single = sensing.add_noise(mv, 20.0, cell_seed + t)
            np.testing.assert_array_equal(stack.values[t], single.values)

    @pytest.mark.parametrize("start, rows", [
        (0, 1), (31, 1), (0, 32), (31, 2), (5, 60), (20, 80), (40, 100)])
    def test_consecutive_seeds_straddle_blocks(self, geometry, start, rows):
        # Rows 0 and 31 alone, whole and partial blocks, 2 to 4 blocks.
        self.assert_rows_follow_the_rule(self.make_measurement(geometry),
                                         range(start, start + rows))

    @pytest.mark.parametrize("seeds", [
        range(2**32 - 100, 2**32 + 1),
        range(2**64 - 30, 2**64 + 6),
        range(2**32 - 50, 2**32 + 50)])
    def test_multi_word_seed_ranges(self, geometry, seeds):
        # Ranges of seeds wider than 32 bits, across the 2**32 and 2**64
        # boundaries of default_rng's seed words, follow the rule.
        mv = self.make_measurement(geometry)
        stack = self.assert_rows_follow_the_rule(mv, seeds)
        for t in (0, len(seeds) - 1):
            np.testing.assert_array_equal(
                stack.values[t], sensing.add_noise(mv, 20.0,
                                                   seeds[t]).values)

    @pytest.mark.parametrize("seeds", [
        [40, 3, 3, 40, 95, 0, 31, 32],
        range(99, 60, -3),
        np.array([7, 2**40 + 1, 7, 63, 64]),
        [2**32], [2**64 + 5]])
    def test_unordered_and_duplicate_seeds(self, geometry, seeds):
        # Seeds come as one int or a range of consecutive ones: a list or
        # an array of seeds is a TypeError naming both forms, and a range
        # with another step is a ValueError.
        mv = self.make_measurement(geometry)
        if isinstance(seeds, range):
            with pytest.raises(ValueError, match="range of step 1"):
                sensing.add_noise(mv, 20.0, seeds)
        else:
            with pytest.raises(TypeError, match="an int or a range"):
                sensing.add_noise(mv, 20.0, seeds)

    @pytest.mark.parametrize("seeds", [
        range(0), range(5, 5), range(2**64, 2**64), range(7, 3)])
    def test_empty_seed_sequence(self, geometry, seeds):
        mv = self.make_measurement(geometry)
        stack = sensing.add_noise(mv, 20.0, seeds)
        assert stack.values.shape == (0, geometry.channel_count)
        assert stack.noise_sigma == sensing.add_noise(mv, 20.0, 0).noise_sigma

    def test_noise_statistics_across_block_boundaries(self):
        # 4,096 consecutive seeds from row 11 of a block cross 128 block
        # boundaries; all bounds are 4 standard errors, on fixed seeds.
        k, start = 16, 11 + CELL_SEED_STRIDE
        rows = sensing.standard_normal_rows(range(start, start + 4096), k)
        x = rows.ravel()
        n = x.size
        assert abs(x.mean()) < 4 / np.sqrt(n)
        assert abs(x.var() - 1) < 4 * np.sqrt(2 / n)
        assert abs(stats.skew(x)) < 4 * np.sqrt(6 / n)
        assert abs(stats.kurtosis(x)) < 4 * np.sqrt(24 / n)
        assert stats.kstest(x, "norm").pvalue > 1e-3
        last = (np.arange(start, start + 4096) % 32 == 31)[:-1]
        pairs = np.stack([rows[:-1][last].ravel(), rows[1:][last].ravel()])
        assert last.sum() == 128
        assert abs(np.corrcoef(pairs)[0, 1]) < 4 / np.sqrt(pairs.shape[1])

    @pytest.mark.parametrize("seed", [
        -1, range(-1, 0), range(-64, -31), range(-3, 40)])
    def test_negative_seed_rejected(self, geometry, seed):
        with pytest.raises(ValueError):
            sensing.add_noise(self.make_measurement(geometry), 20.0, seed)

    @pytest.mark.parametrize("seed", [1.5, [0, 2.0], np.array([0.0, 1.0])])
    def test_non_integer_seed_rejected(self, geometry, seed):
        with pytest.raises(TypeError, match="an int or a range"):
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
