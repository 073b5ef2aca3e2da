import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

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
    panel_depth,
    sinc_response,
)


ROOT = Path(__file__).resolve().parent.parent


def noise_row(seed: int, k: int) -> np.ndarray:
    """The noise rule from numpy alone: row seed % 32 of the 32-row block
    that default_rng(seed // 32) draws."""
    block = np.random.default_rng(seed // 32).standard_normal((32, k))
    return block[seed % 32]


# Largest gap between the readout and scipy's Hermite-spline readout of
# one scene (oracles.fluorescence_readout_per_scene), relative to the
# largest optical depth for the windows and to each depth for the depth.
# The two build the same interpolants, so they differ by rounding alone:
# measured 2.4e-15 and 8.4e-15 over 1-3 targets, LO ratios 2-50, cells of
# 4-16 lambda and 3, 32 and 257 points per lambda.
SCIPY_READOUT_TOL = 2e-14
SCIPY_DEPTH_RTOL = 1e-13


def lo_only_scene(amplitude=4e-5):
    return RfScene(lo=PlaneWave(amplitude, 0.0, np.pi / 2))


def exact_profile(params, scene, x):
    """The probe's profile of the exact absorption of a scene or a stack."""
    return sensing.propagate_probe(physics.absorption_exact(params, scene, x),
                                   physics.absorption_slope(params, scene, x),
                                   x)


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
        # cell edge, up to rounding.
        for cells, width, pitch in itertools.product(
                (1.5, 4.0, 16.0), (0.25, 0.1, 1.0, 0.15), (0.25, 0.15, 0.2)):
            geom = SensorGeometry(cells * rf_wavelength,
                                  width * rf_wavelength,
                                  pitch * rf_wavelength)
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
    def test_depth_is_scipy_hermite_antiderivative(self):
        # the probe's optical depth integrates the cubic Hermite
        # interpolant of (alpha, slope): scipy's antiderivative of its
        # CubicHermiteSpline at the nodes, on a uniform and a non-uniform
        # grid, with slopes up to 1/h, so that the end correction is as
        # large as the depth's rise allows
        rng = np.random.default_rng(3)
        for x in (np.linspace(0.0, 0.5, 513),
                  np.cumsum(rng.uniform(1e-4, 2e-3, 513))):
            alpha = rng.uniform(1.0, 2.0, x.size)
            slope = rng.uniform(-1.0, 1.0, x.size) / np.diff(x).max()
            got = sensing.propagate_probe(alpha, slope, x).optical_depth
            want = CubicHermiteSpline(x, alpha, slope).antiderivative()(x)
            assert got[0] == want[0] == 0.0
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_exact_for_cubics(self):
        # alpha = 1 + 2x - 3x^2 + 4x^3 on an uneven grid: the depth is its
        # antiderivative x + x^2 - x^3 + x^4 at every node, to rounding
        rng = np.random.default_rng(5)
        x = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 40))))
        alpha = 1 + 2 * x - 3 * x**2 + 4 * x**3
        slope = 2 - 6 * x + 12 * x**2
        depth = sensing.propagate_probe(alpha, slope, x).optical_depth
        np.testing.assert_allclose(depth, x + x**2 - x**3 + x**4,
                                   rtol=1e-14, atol=1e-16)

    def test_transparent_cell(self, geometry, rf_wavelength):
        x = geometry.grid(rf_wavelength)
        profile = sensing.propagate_probe(np.zeros_like(x), np.zeros_like(x),
                                          x)
        np.testing.assert_array_equal(profile.optical_depth, 0.0)
        np.testing.assert_array_equal(profile.fluorescence, 1.0)

    def test_uniform_absorber_closed_form(self, geometry, rf_wavelength):
        alpha = 2.5
        x = geometry.grid(rf_wavelength)
        profile = sensing.propagate_probe(np.full_like(x, alpha),
                                          np.zeros_like(x), x)
        expected = np.exp(-alpha * geometry.cell_length)
        assert profile.fluorescence[-1] == pytest.approx(expected, rel=1e-8)

    def test_transmission_matches_quadrature(self, params, two_target,
                                             geometry):
        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        x = geometry.grid(two_target.rf_wavelength)
        profile = exact_profile(params, two_target, x)
        depth, _ = quad(lambda x: float(alpha(x)), 0.0,
                        geometry.cell_length, limit=400)
        assert profile.fluorescence[-1] == pytest.approx(np.exp(-depth),
                                                         rel=1e-6)

    def test_fluorescence_proportional(self, geometry, rf_wavelength):
        # the profile holds the optical depth and its slope, the
        # absorption; its image, the unit-power probe's, is derived
        x = geometry.grid(rf_wavelength)
        alpha = np.full_like(x, 1.0)
        profile = sensing.propagate_probe(alpha, np.zeros_like(x), x)
        assert [f.name for f in fields(profile)] == [
            "positions", "optical_depth", "absorption"]
        np.testing.assert_array_equal(profile.absorption, alpha)
        np.testing.assert_array_equal(profile.fluorescence,
                                      np.exp(-profile.optical_depth))

    def test_profile_matches_ode_solver(self, params, two_target, geometry):
        from scipy.integrate import solve_ivp

        def alpha(x):
            return physics.absorption_exact(params, two_target, x)

        x = geometry.grid(two_target.rf_wavelength)
        profile = exact_profile(params, two_target, x)
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
        profile = exact_profile(params, two_target, x)
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
        x = geometry.grid(two_target.rf_wavelength)
        profile = exact_profile(params, two_target, x)
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


# A bound on the fourth derivative of tau_test, the third of alpha_test.
TAU_TEST_FOURTH = 37.0**3 + 0.1 * 91.0**3


class TestChannelMeasurements:
    def test_constant_absorption_window_area(self, geometry):
        x = np.linspace(0, geometry.cell_length, 2001)
        alpha_dc = 3.7
        profile = FluorescenceProfile(positions=x, optical_depth=alpha_dc * x,
                                      absorption=np.full_like(x, alpha_dc))
        values = sensing.channel_measurements(profile, geometry)
        np.testing.assert_allclose(values,
                                   alpha_dc * geometry.window_width,
                                   rtol=1e-12)

    def test_contiguous_windows_match_log_power_ratio(self, params,
                                                      two_target, geometry):
        lam = two_target.rf_wavelength
        geom = geometry  # contiguous: width == pitch
        x = geom.grid(lam)
        profile = exact_profile(params, two_target, x)
        values = sensing.channel_measurements(profile, geom)
        image = profile.fluorescence
        for j, (a, b) in enumerate(zip(*geom.window_edges)):
            p_in = np.interp(a, x, image)
            p_out = np.interp(b, x, image)
            assert values[j] == pytest.approx(-np.log(p_out / p_in),
                                              rel=1e-6)

    def test_single_cosine_matches_antiderivative(self, geometry):
        dk, dphi, amp = 40.0, 0.6, 2.0
        x = np.linspace(0, geometry.cell_length, 300_001)
        profile = sensing.propagate_probe(
            amp * np.cos(dk * x - dphi), -amp * dk * np.sin(dk * x - dphi), x)
        values = sensing.channel_measurements(profile, geometry)
        for j, (a, b) in enumerate(zip(*geometry.window_edges)):
            exact = amp * (np.sin(dk * b - dphi) - np.sin(dk * a - dphi)) / dk
            assert values[j] == pytest.approx(exact, rel=1e-8)

    def test_window_outside_sampled_domain(self, geometry):
        lo, hi = geometry.window_edges
        # missing the start puts windows 1-3 outside, the end windows 14-16
        for start, stop, first_bad in ((0.1, 0.0, 0), (0.0, 0.1, 13)):
            x = np.linspace(start, geometry.cell_length - stop, 101)
            profile = FluorescenceProfile(positions=x, optical_depth=x - x[0],
                                          absorption=np.ones_like(x))
            with pytest.raises(WindowOutOfCell) as batched:
                sensing.channel_measurements(profile, geometry)
            assert str(batched.value).startswith(
                f"window {first_bad + 1} [{lo[first_bad]:g}, "
                f"{hi[first_bad]:g}]")
            with pytest.raises(WindowOutOfCell) as per_window:
                channel_measurements_per_window(profile, geometry)
            assert str(batched.value) == str(per_window.value)

    def test_rejects_depth_not_on_positions(self):
        # a (2, 6) depth over 4 positions, or an absorption of another
        # shape than the depth, would otherwise be read at points it does
        # not hold or broadcast into rows that are not its scenes'
        x = np.linspace(0.0, 1.0, 4)
        for depth, absorption in ((np.ones((2, 6)), np.ones((2, 6))),
                                  (np.ones((2, 4)), np.ones((1, 4))),
                                  (np.ones(4), np.ones(3))):
            with pytest.raises(ValueError, match="one column per position"):
                FluorescenceProfile(positions=x, optical_depth=depth,
                                    absorption=absorption)

    @pytest.mark.parametrize("lead", [(0,), (2, 0)])
    def test_empty_stack(self, geometry, lead):
        # a stack with no rows reads to no rows of K channels
        x = np.linspace(0, geometry.cell_length, 101)
        profile = FluorescenceProfile(positions=x,
                                      optical_depth=np.ones(lead + x.shape),
                                      absorption=np.ones(lead + x.shape))
        values = sensing.channel_measurements(profile, geometry)
        assert values.shape == lead + (geometry.channel_count,)

    @staticmethod
    def assert_stack_reads_tau_difference(x, geometry, tau, alpha, fourth):
        """Read the optical depths s * tau, with their slopes s * alpha,
        s = 0.5, 1 and 2, as one stack. Each row equals the call on its
        profile alone, bit for bit. Channel j of a row is
        s * (tau(b) - tau(a)) over its window [a, b] clipped to the
        positions: within rounding when both edges fall on grid points,
        and otherwise within the cubic Hermite interpolation error of
        s * tau at an edge e inside panel i,
        (e - x_i)^2 (x_i+1 - e)^2 / 24 times a bound on |s * tau''''|."""
        scales = np.array([[0.5], [1.0], [2.0]])
        profile = FluorescenceProfile(positions=x,
                                      optical_depth=scales * tau(x),
                                      absorption=scales * alpha(x))
        values = sensing.channel_measurements(profile, geometry)
        for row, depth, slope in zip(values, profile.optical_depth,
                                     profile.absorption):
            assert np.array_equal(row, sensing.channel_measurements(
                FluorescenceProfile(positions=x, optical_depth=depth,
                                    absorption=slope), geometry))
        lo, hi = geometry.window_edges
        a, b = np.maximum(lo, x[0]), np.minimum(hi, x[-1])

        def interpolation_error(edge):
            i = np.clip(np.searchsorted(x, edge) - 1, 0, x.size - 2)
            return ((edge - x[i]) * (x[i + 1] - edge))**2 / 24 * fourth

        # the depth s * tau rounds where it is evaluated, and each edge
        # read in the interpolation: well inside 8 n eps of its scale
        rounding = 8 * x.size * np.finfo(float).eps * \
            max(1.0, np.abs(scales * tau(x)).max())
        err = np.abs(values - scales * (tau(b) - tau(a)))
        bound = scales * (interpolation_error(a) + interpolation_error(b)) \
            + rounding
        assert np.all(err <= bound), np.max(err / bound)

    @pytest.mark.parametrize("cell_wavelengths", [8, 11, 16])
    def test_fluorescence_scene_bit_exact(self, params, cell_wavelengths):
        # the grid of an LO-ratio sweep cell at the default density, where
        # every window edge falls on a grid point; tau is the optical depth
        # of the linearized absorption of three targets, a closed form
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
            return physics.absorption_linearized(params, scene, x)

        self.assert_stack_reads_tau_difference(
            geom.grid(scene.rf_wavelength), geom, tau, alpha,
            np.abs(mods * dks**3).sum())

    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 5, 16, 257])
    def test_coarse_and_odd_grids_bit_exact(self, rf_wavelength,
                                            points_per_wavelength):
        # at 2-5 points per lambda a quarter-wave window holds 0 or 1
        # interior samples, and edges can fall on grid points
        lam = rf_wavelength
        geom = SensorGeometry(6 * lam, 0.3 * lam, 0.2 * lam,
                              points_per_wavelength)
        self.assert_stack_reads_tau_difference(
            geom.grid(rf_wavelength), geom, tau_test, alpha_test,
            TAU_TEST_FOURTH)

    def test_non_uniform_positions_bit_exact(self, geometry):
        rng = np.random.default_rng(11)
        inner = rng.uniform(0.0, geometry.cell_length, 700)
        x = np.sort(np.concatenate(([0.0, geometry.cell_length], inner)))
        self.assert_stack_reads_tau_difference(x, geometry, tau_test,
                                               alpha_test, TAU_TEST_FOURTH)

    def test_windows_clipped_at_domain_ends_bit_exact(self, geometry):
        # the first and last windows overhang the samples by less than
        # the 1e-9 * cell_length tolerance, so both get clipped
        overhang = 4e-10 * geometry.cell_length
        x = np.linspace(overhang, geometry.cell_length - overhang, 1001)
        lo, hi = geometry.window_edges
        assert lo[0] < x[0] and hi[-1] > x[-1]
        self.assert_stack_reads_tau_difference(x, geometry, tau_test,
                                               alpha_test, TAU_TEST_FOURTH)

    def test_edges_read_scipy_hermite_spline(self, rf_wavelength):
        # on uniform grids, window edges between grid points read scipy's
        # CubicHermiteSpline of (depth, absorption); on a non-uniform grid
        # through every edge, the windows are node differences, bit for bit
        lam = rf_wavelength
        rng = np.random.default_rng(17)
        for geom in (SensorGeometry(6 * lam, 0.3 * lam, 0.2 * lam, 7),
                     SensorGeometry(6 * lam, 0.137 * lam, 0.25 * lam, 32)):
            x = geom.grid(lam)
            depth = np.cumsum(rng.uniform(0.5, 2.0, x.size))
            slope = rng.uniform(-3.0, 3.0, x.size)
            profile = FluorescenceProfile(positions=x, optical_depth=depth,
                                          absorption=slope)
            lo, hi = geom.window_edges
            spline = CubicHermiteSpline(x, depth, slope)
            np.testing.assert_allclose(
                sensing.channel_measurements(profile, geom),
                spline(np.minimum(hi, x[-1])) - spline(lo),
                rtol=1e-13, atol=1e-13 * depth.max())
            on_nodes = np.sort(np.concatenate((lo, np.minimum(hi, x[-1]),
                                               rng.uniform(0, x[-1], 50))))
            profile = FluorescenceProfile(
                positions=on_nodes, optical_depth=spline(on_nodes),
                absorption=spline(on_nodes, 1))
            ends = dict(zip(on_nodes, profile.optical_depth))
            assert np.array_equal(
                sensing.channel_measurements(profile, geom),
                [ends[b] - ends[a] for a, b in zip(lo, np.minimum(
                    hi, on_nodes[-1]))])


class TestReadoutAccuracy:
    """The full readout against scipy.quad window integrals of the exact
    absorption above its LO-only background, on fig3c's scene."""

    @staticmethod
    def errors(ratio, points_per_wavelength, width_wavelengths=0.25):
        """Largest error over the windows as a share of the channel std,
        at each grid density in the sequence points_per_wavelength."""
        scenario = load_config(ROOT / "configs" / "fig3c.json").scenario
        params = scenario.params
        scene = scenarios.with_lo_ratio(scenario.scene, ratio)
        geom = replace(scenario.geometry, window_width=width_wavelengths
                       * scene.rf_wavelength)
        dc = physics.absorption_dc(params, scene)
        truth = np.array([
            quad(lambda x: physics.absorption_exact(params, scene, x) - dc,
                 a, b, epsabs=0, epsrel=1e-10, limit=200)[0]
            for a, b in zip(*geom.window_edges)])
        return [np.abs(sensing.simulate_measurements(scene, replace(
            geom, grid_points_per_rf_wavelength=n), params).values
            - truth).max() / truth.std() for n in points_per_wavelength]

    @pytest.mark.parametrize("points_per_wavelength, bound",
                             [(4096, 1e-6), (256, 2e-4), (32, 3e-5),
                              (16, 5e-2)])
    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_windows_match_quadrature(self, ratio, points_per_wavelength,
                                      bound):
        assert self.errors(ratio, [points_per_wavelength])[0] <= bound

    @pytest.mark.parametrize("width_wavelengths", [0.3, 0.137])
    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_default_density_with_edges_between_grid_points(
            self, ratio, width_wavelengths):
        # 0.3 lambda and 0.137 lambda windows put their edges between grid
        # points, where they are read off the Hermite interpolant
        assert SensorGeometry.grid_points_per_rf_wavelength == 32
        assert self.errors(ratio, [32], width_wavelengths)[0] <= 3e-5

    @pytest.mark.parametrize("ratio", [2.0, 20.0])
    def test_error_falls_as_h_to_the_fourth(self, ratio):
        # fourth order: at least 12x less error per halving of h, where a
        # second-order rule would give 4x
        errors = self.errors(ratio, [16, 32, 64, 128])
        assert all(e >= 12 * f for e, f in zip(errors, errors[1:])), errors


class TestPanelReadoutEquivalence:
    """The depth read straight off the image's log against the panel route
    it replaced (oracles.panel_depth): panel means -diff(log F) / diff(x)
    and their running integral; each is read at the window edges with the
    profile's absorption."""

    @staticmethod
    def readout(profile, geometry, depth):
        return sensing.channel_measurements(
            replace(profile, optical_depth=depth), geometry)

    def assert_routes_match(self, profile, geometry, rtol):
        got = self.readout(profile, geometry,
                           sensing.recover_alpha(profile.fluorescence))
        want = self.readout(profile, geometry, panel_depth(profile))
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= rtol * scale)

    def test_random_stacks_match_within_1e_10(self, params):
        # 1-3 targets, three LO ratios in 0.5-60, cells of 1-19 lambda
        # and 16-1024 points per lambda. F[0] = 1 makes the new depth
        # exactly -log F; the panel route rounds wherever (a / b) * b != a.
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(1, 4))
            base = scenarios.scene_from_angles(
                rng.uniform(-70.0, 70.0, n), phases=rng.uniform(0, 6.3, n))
            scenes = [scenarios.with_lo_ratio(base, r)
                      for r in np.exp(rng.uniform(np.log(0.5), np.log(60),
                                                  3))]
            lam = base.rf_wavelength
            geom = SensorGeometry(int(rng.integers(1, 20)) * lam, lam / 4,
                                  lam / 4, int(rng.choice([16, 64, 256,
                                                           1024])))
            self.assert_routes_match(
                exact_profile(params, scenes, geom.grid(lam)), geom, 1e-10)

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in (ROOT / "configs").glob("*.json")))
    def test_bundled_configs_bit_exact(self, name):
        scenario = load_config(ROOT / "configs" / f"{name}.json").scenario
        scene, geom = scenario.scene, scenario.geometry
        self.assert_routes_match(exact_profile(
            scenario.params, scene, geom.grid(scene.rf_wavelength)), geom, 0)

    def test_depth_is_minus_log_probe_power(self, params, two_target,
                                            geometry):
        scenes = [scenarios.with_lo_ratio(two_target, r) for r in (2, 50)]
        for scene in (two_target, scenes):
            x = geometry.grid(two_target.rf_wavelength)
            profile = exact_profile(params, scene, x)
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
    its profile and measurements equal a one-scene call, and agree with
    the per-scene scipy oracle to rounding."""

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
            want_profile, want = sensing.fluorescence_readout(
                scene, geometry, params)
            assert np.array_equal(profile.positions, want_profile.positions)
            for name in ("optical_depth", "absorption", "fluorescence"):
                assert np.array_equal(getattr(profile, name)[c],
                                      getattr(want_profile, name))
            assert np.array_equal(measurement.values[c], want.values)
            TestStackedReadout.assert_matches_oracle(
                want_profile, want, scene, geometry, params)

    @staticmethod
    def assert_matches_oracle(profile, measurement, scene, geometry, params):
        want_profile, want = fluorescence_readout_per_scene(
            scene, geometry, params)
        assert np.array_equal(profile.positions, want_profile.positions)
        assert np.array_equal(profile.absorption, want_profile.absorption)
        np.testing.assert_allclose(profile.optical_depth,
                                   want_profile.optical_depth,
                                   rtol=SCIPY_DEPTH_RTOL, atol=0)
        assert measurement.values.shape == want.values.shape
        assert np.abs(measurement.values - want.values).max() <= \
            SCIPY_READOUT_TOL * np.abs(want_profile.optical_depth).max()

    @pytest.mark.parametrize("points_per_wavelength", [3, 257])
    @pytest.mark.parametrize("cell_wavelengths", [8, 11, 16])
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_rows_equal_per_scene_readout(self, params, n_targets,
                                          cell_wavelengths,
                                          points_per_wavelength):
        scenes = self.stack(n_targets, self.RATIOS)
        lam = scenes[0].rf_wavelength
        geom = SensorGeometry(cell_wavelengths * lam, lam / 4, lam / 4,
                              points_per_wavelength)
        self.assert_rows_match(scenes, geom, params)

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    def test_physics_rows_equal_per_scene(self, params, n_targets):
        scenes = self.stack(n_targets, self.RATIOS)
        x = np.linspace(-0.3, 0.9, 1001)
        field = physics.field_intensity(scenes, x)
        alpha = physics.absorption_exact(params, scenes, x)
        field_slope = physics.field_intensity_slope(scenes, x)
        slope = physics.absorption_slope(params, scenes, x)
        assert field.shape == alpha.shape == (len(scenes), x.size)
        assert field_slope.shape == slope.shape == field.shape
        for c, scene in enumerate(scenes):
            assert np.array_equal(field[c],
                                  field_intensity_per_scene(scene, x))
            assert np.array_equal(alpha[c], absorption_exact_per_scene(
                params, scene, x))
            assert np.array_equal(field_slope[c],
                                  physics.field_intensity_slope(scene, x))
            assert np.array_equal(slope[c],
                                  physics.absorption_slope(params, scene, x))
        for fn in (physics.field_intensity, physics.field_intensity_slope):
            assert fn(scenes[:1], 0.25).shape == (1,)
            assert isinstance(fn(scenes[0], 0.25), float)

    @pytest.mark.parametrize("model", ["exact"])
    def test_single_scene_is_the_per_scene_readout(self, params, geometry,
                                                   two_target, model):
        profile, got = sensing.fluorescence_readout(two_target, geometry,
                                                    params)
        self.assert_matches_oracle(profile, got, two_target, geometry,
                                   params)

    def test_stack_of_one(self, params, geometry, two_target):
        self.assert_rows_match([two_target], geometry, params)

    @pytest.mark.parametrize("points_per_wavelength", [2, 3, 5, 257])
    def test_channel_rows_equal_per_scene(self, rf_wavelength,
                                          points_per_wavelength):
        lam = rf_wavelength
        geom = SensorGeometry(4 * lam, lam / 4, lam / 4,
                              points_per_wavelength)
        x = geom.grid(rf_wavelength)
        rng = np.random.default_rng(points_per_wavelength)
        depth, slope = rng.standard_normal((2, 3, x.size)) * 10.0 ** \
            rng.uniform(-6, 6, (2, 3, 1))
        got = sensing.channel_measurements(FluorescenceProfile(
            positions=x, optical_depth=depth, absorption=slope), geom)
        for row, want, want_slope in zip(got, depth, slope):
            assert np.array_equal(row, sensing.channel_measurements(
                FluorescenceProfile(positions=x, optical_depth=want,
                                    absorption=want_slope), geom))

    def test_window_out_of_cell_names_first_bad_window(self, geometry):
        x = np.linspace(0.0, geometry.cell_length - 0.1, 101)
        values = np.ones((3, x.size))
        stack = FluorescenceProfile(positions=x, optical_depth=values,
                                    absorption=values)
        with pytest.raises(WindowOutOfCell) as stacked:
            sensing.channel_measurements(stack, geometry)
        with pytest.raises(WindowOutOfCell) as single:
            sensing.channel_measurements(FluorescenceProfile(
                positions=x, optical_depth=values[0],
                absorption=values[0]), geometry)
        assert str(stacked.value) == str(single.value)
        assert str(stacked.value).startswith("window 14 ")

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
        lam = rf_wavelength
        geom = SensorGeometry(4 * lam, lam, lam / 4)
        scene = scenarios.scene_from_angles((0.0,))
        mv = sensing.predicted_measurements(scene, geom, params)
        mods = physics.modulation_amplitudes(params, scene)
        assert np.max(np.abs(mv.values)) < 1e-12 * np.abs(mods).max()

    def test_matches_integrated_linearized_profile(self, params, two_target):
        lam = two_target.rf_wavelength
        fine = SensorGeometry(4 * lam, lam / 4, lam / 4, 65536)
        x = fine.grid(lam)
        mods = physics.modulation_amplitudes(params, two_target)
        slope = -sum(m * dk * np.sin(dk * x - dphi) for m, dk, dphi in zip(
            mods, two_target.delta_ks, two_target.delta_phis))
        profile = sensing.propagate_probe(
            physics.absorption_linearized(params, two_target, x), slope, x)
        integrated = sensing.calibrate(
            sensing.channel_measurements(profile, fine), fine,
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
