import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import constants

from rydberg_doa import physics, scenarios
from rydberg_doa.errors import (
    DegenerateDetuning,
    LoDominanceWarning,
    SingularPoint,
)
from rydberg_doa.physics import AtomicParams, PlaneWave, RfScene
from oracles import (
    rabi_frequency,
    rf_field,
    scattering_rate,
    susceptibility_full,
    susceptibility_prefactor,
    susceptibility_simplified,
)

HBAR = 1.054571817e-34

angles = st.floats(-np.pi / 2, np.pi / 2)
phases = st.floats(-np.pi, np.pi)
amplitudes = st.floats(0.0, 10.0)


@st.composite
def scenes(draw, max_signals=4):
    n = draw(st.integers(0, max_signals))
    lo = PlaneWave(draw(st.floats(1e-3, 10.0)), draw(phases), draw(angles))
    signals = tuple(
        PlaneWave(draw(amplitudes), draw(phases), draw(angles))
        for _ in range(n))
    return RfScene(lo=lo, signals=signals, carrier_freq=2.03e9)


def test_constants_equal_scipy():
    assert physics.SPEED_OF_LIGHT == constants.c
    assert physics.VACUUM_PERMITTIVITY == constants.epsilon_0
    assert physics.REDUCED_PLANCK == constants.hbar


class TestRabiFrequency:
    def test_zero_field(self, params):
        assert rabi_frequency(params, 0.0) == 0.0

    def test_unit_field_value(self, params):
        # mu_RF / hbar for a 1 V/m field
        got = rabi_frequency(params, 1.0)
        assert got == pytest.approx(7.85e-26 / HBAR, rel=1e-9)
        assert got == pytest.approx(7.444e8, rel=1e-3)

    def test_linear_in_field(self, params):
        assert rabi_frequency(params, 2.0) == pytest.approx(
            2 * rabi_frequency(params, 1.0))

    def test_rejects_negative(self, params):
        with pytest.raises(ValueError):
            rabi_frequency(params, -1.0)


class TestFieldIntensity:
    def test_lo_only_constant(self):
        scene = RfScene(lo=PlaneWave(2.0, 0.3, 0.1))
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(physics.field_intensity(scene, x), 4.0)

    def test_single_signal_closed_form(self):
        lo = PlaneWave(2.0, 0.2, np.pi / 2)
        sig = PlaneWave(0.5, 0.9, np.pi / 6)
        scene = RfScene(lo=lo, signals=(sig,))
        x = np.linspace(0, 0.5, 101)
        dk = scene.wavenumber * (np.sin(lo.angle) - np.sin(sig.angle))
        dphi = sig.phase - lo.phase
        expected = (lo.amplitude**2 + sig.amplitude**2
                    + 2 * lo.amplitude * sig.amplitude
                    * np.cos(dk * x - dphi))
        np.testing.assert_array_equal(physics.field_intensity(scene, x),
                                      expected)

    def test_two_signals_vs_phasor_sum(self, two_target):
        x = np.linspace(0, 0.6, 257)
        oracle = np.abs(rf_field(two_target, x)) ** 2
        np.testing.assert_allclose(physics.field_intensity(two_target, x),
                                   oracle, rtol=1e-12, atol=0)

    @given(scene=scenes(), x=st.floats(-10.0, 10.0))
    def test_matches_phasor_oracle(self, scene, x):
        got = physics.field_intensity(scene, x)
        oracle = abs(rf_field(scene, x)) ** 2
        scale = (scene.lo.amplitude
                 + sum(s.amplitude for s in scene.signals)) ** 2
        assert got >= -1e-12 * scale
        assert abs(got - oracle) <= 1e-12 * max(scale, abs(oracle))


class TestSusceptibility:
    def test_zero_field_hand_evaluated(self, params):
        # nested fraction collapses when the RF term vanishes
        prefactor = (2 * np.pi * params.atom_density * params.probe_dipole**2
                     / (constants.epsilon_0 * constants.hbar))
        expected = 1j * prefactor / (
            params.decay_21
            + (params.coupling_rabi**2 / 4) / (-1j * params.coupling_detuning))
        got = susceptibility_full(params, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_full_matches_simplified_in_limit(self, params):
        rabi = np.linspace(0, 2 * np.pi * 50e6, 31)
        full = susceptibility_full(params, rabi)
        simple = susceptibility_simplified(params, rabi)
        np.testing.assert_allclose(full, simple, rtol=1e-12)

    def test_strong_coupling_restores_transparency(self, params):
        strong = AtomicParams(coupling_rabi=2 * np.pi * 400e6)
        im_weak = susceptibility_full(params, 0.0).imag
        im_strong = susceptibility_full(strong, 0.0).imag
        assert im_strong < 1e-2 * im_weak

    def test_absorption_positive_over_sweep(self, params):
        rabi = np.linspace(0, 2 * np.pi * 50e6, 101)
        chi = susceptibility_simplified(params, rabi)
        assert np.all(chi.imag > 0)

    def test_linear_in_density(self, params):
        doubled = AtomicParams(atom_density=2 * params.atom_density)
        rabi = 2 * np.pi * 5e6
        assert susceptibility_simplified(doubled, rabi) == \
            pytest.approx(2 * susceptibility_simplified(params, rabi))

    def test_degenerate_detuning_raises(self):
        # power-of-two detunings cancel exactly in binary floating point
        bad = AtomicParams(coupling_detuning=65536.0)
        rabi = 2.0**17
        with pytest.raises(DegenerateDetuning):
            susceptibility_simplified(bad, rabi)

    def test_simplified_requires_resonant_probe(self, params):
        # The simplified form is the full one at zero probe detuning only:
        # a probe 1 MHz off resonance leaves the transparency window and
        # absorbs far more.
        simple = susceptibility_simplified(params, 0.0)
        assert susceptibility_full(params, 0.0, probe_detuning=0.0) == \
            pytest.approx(simple, rel=1e-12)
        detuned = susceptibility_full(params, 0.0,
                                      probe_detuning=2 * np.pi * 1e6)
        assert detuned.imag > 100 * simple.imag

    def test_rydberg_decay_broadens_response(self, params):
        rabi = 2 * np.pi * 10e6
        ideal = susceptibility_full(params, rabi)
        lossy = susceptibility_full(params, rabi,
                                            gamma_31=2 * np.pi * 100e3,
                                            gamma_41=2 * np.pi * 100e3)
        assert np.isfinite(lossy)
        assert lossy != ideal
        # small Rydberg decay is a perturbation, not a regime change
        assert abs(lossy - ideal) < 0.5 * abs(ideal)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_weak_probe_coherence_solve(self, seed):
        # independent oracle: steady-state ladder coherences from the
        # weak-probe linear system instead of the nested fraction
        rng = np.random.default_rng(seed)
        d_p = rng.uniform(-1, 1) * 2 * np.pi * 1e6
        p = AtomicParams(
            coupling_detuning=rng.uniform(0.1, 2) * 2 * np.pi * 1e6,
            rf_detuning=rng.uniform(0.1, 2) * 2 * np.pi * 1e6)
        g31 = rng.uniform(0, 1) * 2 * np.pi * 1e5
        g41 = rng.uniform(0, 1) * 2 * np.pi * 1e5
        rabi = rng.uniform(0, 3) * 2 * np.pi * 1e7
        probe_rabi = 2 * np.pi * 1e3  # arbitrary; cancels
        d21 = p.decay_21 - 1j * d_p
        d31 = g31 - 1j * (d_p + p.coupling_detuning)
        d41 = g41 - 1j * (d_p + p.coupling_detuning + p.rf_detuning)
        system = np.array([
            [d21, -1j * p.coupling_rabi / 2, 0],
            [-1j * p.coupling_rabi / 2, d31, -1j * rabi / 2],
            [0, -1j * rabi / 2, d41],
        ])
        rho = np.linalg.solve(system, [1j * probe_rabi / 2, 0, 0])
        chi_oracle = 1j * susceptibility_prefactor(p) \
            / (1j * probe_rabi / 2 / rho[0])
        got = susceptibility_full(p, rabi, gamma_31=g31, gamma_41=g41,
                                  probe_detuning=d_p)
        assert got == pytest.approx(chi_oracle, rel=1e-12)


class TestLinearizationConstants:
    def test_plug_in_values(self, params):
        c_scale, beta = physics.linearization_constants(params)
        # frozen from the defining expressions with CODATA constants
        assert beta == pytest.approx(2.204688e12, rel=1e-5)
        assert c_scale == pytest.approx(9.584086e15, rel=1e-5)

    def test_prefactor_linear_in_density(self, params):
        doubled = AtomicParams(atom_density=2 * params.atom_density)
        assert physics.linearization_constants(doubled)[0] == \
            pytest.approx(2 * physics.linearization_constants(params)[0])

    def test_beta_sign_follows_detuning(self):
        pos = AtomicParams(coupling_detuning=2 * np.pi * 10e3)
        neg = AtomicParams(coupling_detuning=-2 * np.pi * 10e3)
        assert physics.linearization_constants(pos)[1] > 0
        assert physics.linearization_constants(neg)[1] < 0

    def test_degenerate_detuning(self):
        with pytest.raises(DegenerateDetuning):
            AtomicParams(coupling_detuning=2 * np.pi * 10e3,
                         rf_detuning=-2 * np.pi * 10e3)


class TestIntensityResponse:
    def test_derivative_matches_finite_difference_at_unit_lo(self, params):
        s0 = 1.0
        h = 1e-5 * s0
        fd = (physics.intensity_response(params, s0 + h)
              - physics.intensity_response(params, s0 - h)) / (2 * h)
        got = physics.intensity_response_derivative(params, s0)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_derivative_matches_fd_at_random_points(self, params):
        rng = np.random.default_rng(7)
        s_vals = 10.0 ** rng.uniform(-6, -2, 50)
        for s0 in s_vals:
            h = 1e-5 * s0
            fd = (physics.intensity_response(params, s0 + h)
                  - physics.intensity_response(params, s0 - h)) / (2 * h)
            got = physics.intensity_response_derivative(params, s0)
            assert got == pytest.approx(fd, rel=1e-6)

    def test_response_positive(self, params):
        s = 10.0 ** np.linspace(-9, 0, 200)
        assert np.all(physics.intensity_response(params, s) > 0)

    def test_matches_susceptibility_imaginary_part(self, params):
        rng = np.random.default_rng(3)
        s = 10.0 ** rng.uniform(-7, -1, 20)
        c_scale, _ = physics.linearization_constants(params)
        lhs = c_scale * physics.intensity_response(params, s)
        rabi = np.sqrt(s) * params.rf_dipole / constants.hbar
        rhs = params.probe_wavenumber * np.imag(
            susceptibility_simplified(params, rabi))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_singular_point(self, params):
        _, beta = physics.linearization_constants(params)
        with pytest.raises(SingularPoint):
            physics.intensity_response(params, params.coupling_detuning / beta)


class TestAbsorption:
    def test_lo_only_uniform(self, params):
        scene = RfScene(lo=PlaneWave(4e-5, 0.0, np.pi / 2))
        x = np.linspace(0, 0.6, 33)
        expected = physics.absorption_dc(params, scene)
        np.testing.assert_allclose(physics.absorption_exact(params, scene, x),
                                   expected)
        # A scalar position gives a scalar even with no cosine to add.
        assert isinstance(physics.absorption_linearized(
            params, scene, 0.25, physics.modulation_amplitudes(params, scene)),
            float)

    def test_single_target_linearization_error_small(self, params):
        scene = scenarios.scene_from_angles((30.0,), lo_ratio=10.0)
        lam = scene.rf_wavelength
        x = np.linspace(0, 4 * lam, 4097)
        exact = physics.absorption_exact(params, scene, x)
        linear = physics.absorption_linearized(
            params, scene, x, physics.modulation_amplitudes(params, scene))
        dc = physics.absorption_dc(params, scene)
        ratio = np.max(np.abs(exact - linear)) / np.max(np.abs(linear - dc))
        assert ratio < 0.15

    def test_single_target_periodicity(self, params):
        scene = scenarios.scene_from_angles((30.0,), lo_ratio=10.0)
        period = 2 * np.pi / scene.delta_ks[0]
        x = np.linspace(0, period, 65)
        np.testing.assert_allclose(
            physics.absorption_exact(params, scene, x),
            physics.absorption_exact(params, scene, x + period), rtol=1e-9)

    def test_exact_positive_everywhere(self, params, two_target):
        x = np.linspace(0, 4 * two_target.rf_wavelength, 2049)
        assert np.all(physics.absorption_exact(params, two_target, x) > 0)

    def test_zero_signals_reduce_to_dc(self, params):
        scene = RfScene(lo=PlaneWave(2e-5, 0.0, np.pi / 2),
                        signals=(PlaneWave(0.0, 0.0, 0.3),))
        x = np.linspace(0, 0.3, 11)
        np.testing.assert_allclose(
            physics.absorption_linearized(
                params, scene, x, physics.modulation_amplitudes(params, scene)),
            physics.absorption_dc(params, scene))

    def test_modulation_amplitude_linear_in_signal(self, params):
        base = scenarios.scene_from_angles((25.0,), lo_ratio=20.0)
        doubled = RfScene(
            lo=base.lo,
            signals=(PlaneWave(2 * base.signals[0].amplitude, 0.0,
                               base.signals[0].angle),),
            carrier_freq=base.carrier_freq)
        np.testing.assert_allclose(
            physics.modulation_amplitudes(params, doubled),
            2 * physics.modulation_amplitudes(params, base), rtol=1e-12)

    def test_residual_shrinks_with_lo_dominance(self, params, two_target):
        lam = two_target.rf_wavelength
        x = np.linspace(0, 4 * lam, 4097)

        def normalized_rms(ratio):
            scene = scenarios.with_lo_ratio(two_target, ratio)
            mods = physics.modulation_amplitudes(params, scene)
            resid = (physics.absorption_exact(params, scene, x)
                     - physics.absorption_linearized(params, scene, x, mods))
            return np.sqrt(np.mean(resid**2)) / np.abs(mods).sum()

        factor = normalized_rms(1.0) / normalized_rms(10.0)
        assert 4.0 <= factor <= 30.0

    def test_sup_residual_monotone_in_ratio(self, params, two_target):
        lam = two_target.rf_wavelength
        x = np.linspace(0, 4 * lam, 4097)
        sups = []
        for ratio in (1, 2, 5, 10, 20, 50):
            scene = scenarios.with_lo_ratio(two_target, ratio)
            mods = physics.modulation_amplitudes(params, scene)
            resid = (physics.absorption_exact(params, scene, x)
                     - physics.absorption_linearized(params, scene, x, mods))
            sups.append(np.max(np.abs(resid)) / np.abs(mods).sum())
        for lo, hi in zip(sups[1:], sups[:-1]):
            assert lo <= 1.10 * hi

    def test_weak_lo_warns(self, params, two_target):
        weak = scenarios.with_lo_ratio(two_target, 2.0)
        with pytest.warns(LoDominanceWarning):
            physics.modulation_amplitudes(params, weak)


class TestScatteringRate:
    def test_saturation_limit(self):
        gamma = 2 * np.pi * 6e6
        assert scattering_rate(gamma, 1e9) == \
            pytest.approx(gamma / 2, rel=1e-6)

    def test_dark(self):
        assert scattering_rate(2 * np.pi * 6e6, 0.0) == 0.0

    def test_weak_probe_proportionality(self):
        gamma = 2 * np.pi * 6e6
        got = scattering_rate(gamma, 0.01)
        assert got == pytest.approx((gamma / 2) * 0.01 / 1.01, rel=1e-12)
        linear = (gamma / 2) * 0.01
        assert abs(got - linear) / linear < 0.01


class TestSceneProperties:
    def test_lo_dominance_ratio(self, two_target):
        assert two_target.lo_dominance_ratio == pytest.approx(20.0)

    def test_identifiability_flags(self):
        lo = PlaneWave(1.0, 0.0, np.pi / 2)
        ok = RfScene(lo=lo, signals=(PlaneWave(0.1, 0.0, 0.1),
                                     PlaneWave(0.1, 0.0, 0.5)))
        assert ok.is_identifiable()
        dup = RfScene(lo=lo, signals=(PlaneWave(0.1, 0.0, 0.2),
                                      PlaneWave(0.2, 0.0, 0.2)))
        assert not dup.is_identifiable()
        at_lo = RfScene(lo=lo, signals=(PlaneWave(0.1, 0.0, np.pi / 2),))
        assert not at_lo.is_identifiable()
