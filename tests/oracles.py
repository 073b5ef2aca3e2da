"""Independent reference computations that the tests check the runtime
paths against. They are deliberately slower or built on other libraries
(scipy's Cholesky solve, trapezoid quadrature, csv.writer) so that they
share no code path with what they check. The channel-by-channel FIM adds
one channel's outer product at a time, in the order the runtime's
reduction must add them. The closed forms (Rabi frequency, phasor field
sum, two-level scattering rate, four-level susceptibility, whole-cell
integrated power) are textbook formulas that only the tests evaluate.
The per-scene readout integrates one scene's absorption with scipy's
adaptive quad_vec, over all grid intervals at once for the optical depth
and over all windows at once for the measurements. The panel depth is
the optical depth as the pipeline read it before it read the depth
straight off the image's log: panel means of the absorption and their
running integral. The greedy signal-root selection
picks one root set's representatives one at a time in Python, as the
estimator did before it selected over whole stacks. The CSV renderers
at the end build each output file row by row, one f-string .17g per
value, as the writers did before they formatted whole columns at once.
"""

import csv
import io

import numpy as np
from scipy import constants
from scipy.integrate import quad_vec
from scipy.linalg import cho_factor, cho_solve

from rydberg_doa import physics
from rydberg_doa.errors import DegenerateDetuning
from rydberg_doa.physics import (
    AtomicParams,
    RfScene,
    intensity_response,
    linearization_constants,
)
from rydberg_doa.sensing import (
    FluorescenceProfile,
    MeasurementVector,
    SensorGeometry,
    analytic_model,
)

# First positive root of u = tan(u); edge of the monotone main lobe of
# the rectangular-window response.
SINC_MONOTONE_ROOT = 4.493


def window_integrals_quadrature(geometry: SensorGeometry, dk: float,
                                dphi: float, points: int = 10_001
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoid-rule window integrals of cos(dk*x - dphi),
    sin(dk*x - dphi) and -x*sin(dk*x - dphi), for testing the closed forms
    of sensing.analytic_model's Jacobian columns at unit amplitude."""
    k = geometry.channel_count
    cos_vec = np.empty(k)
    sin_vec = np.empty(k)
    pos_sin_vec = np.empty(k)
    for j, (a, b) in enumerate(zip(*geometry.window_edges)):
        x = np.linspace(a, b, points)
        phase = dk * x - dphi
        cos_vec[j] = np.trapezoid(np.cos(phase), x)
        sin_vec[j] = np.trapezoid(np.sin(phase), x)
        pos_sin_vec[j] = -np.trapezoid(x * np.sin(phase), x)
    return cos_vec, sin_vec, pos_sin_vec


def running_integral(panel_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral along the last axis of panel values, constant on
    each panel [x[i], x[i + 1]], from 0 at x[0]; one more column than
    panel_values."""
    out = np.zeros(panel_values.shape[:-1] + x.shape)
    np.cumsum(np.diff(x) * panel_values, axis=-1, out=out[..., 1:])
    return out


def panel_depth(profile: FluorescenceProfile) -> np.ndarray:
    """The optical depth of one image or a stack (..., n) by the panel
    route: the exact panel means -diff(log F) / diff(x) and their running
    integral."""
    x = profile.positions
    panels = -np.diff(np.log(profile.fluorescence), axis=-1) / np.diff(x)
    return running_integral(panels, x)


def fisher_information_blocks(geometry: SensorGeometry, delta_ks: np.ndarray,
                              delta_phis: np.ndarray, amplitudes: np.ndarray,
                              sigma2: float) -> np.ndarray:
    """Assemble the FIM from its 3x3 block structure of weighted inner
    products of the window integrals, read off the analytic model's
    Jacobian at unit amplitudes; independent of the Jacobian's assembly,
    used for cross-checking."""
    n = len(delta_ks)
    _, unit = analytic_model(geometry, delta_ks, delta_phis, np.ones(n))
    ts, ss, cs = unit[:, :n].T, unit[:, n:2 * n].T, unit[:, 2 * n:].T

    def inner(a, b):
        return float(a @ b) / sigma2

    amp = amplitudes
    fim = np.zeros((3 * n, 3 * n))
    for i in range(n):
        for m in range(n):
            fim[i, m] = amp[i] * amp[m] * inner(ts[i], ts[m])
            fim[n + i, n + m] = amp[i] * amp[m] * inner(ss[i], ss[m])
            fim[2 * n + i, 2 * n + m] = inner(cs[i], cs[m])
            fim[2 * n + i, n + m] = amp[m] * inner(cs[i], ss[m])
            fim[n + m, 2 * n + i] = fim[2 * n + i, n + m]
            fim[2 * n + i, m] = amp[m] * inner(cs[i], ts[m])
            fim[m, 2 * n + i] = fim[2 * n + i, m]
            fim[n + i, m] = amp[i] * amp[m] * inner(ss[i], ts[m])
            fim[m, n + i] = fim[n + i, m]
    return fim


def fisher_information_scipy(jacobian: np.ndarray,
                             noise_cov: np.ndarray) -> np.ndarray:
    """J^T Sigma^-1 J through scipy's cho_factor/cho_solve and a BLAS
    product; equal to the runtime FIM to rounding only."""
    return jacobian.T @ cho_solve(cho_factor(noise_cov, lower=True), jacobian)


def fisher_information_by_channel(jacobian: np.ndarray,
                                  sigma2: float) -> np.ndarray:
    """J^T J / sigma2 as a running sum of each channel's outer product, one
    channel at a time in a Python loop, then one division."""
    fim = np.zeros((jacobian.shape[1], jacobian.shape[1]))
    for row in jacobian:
        fim = fim + np.multiply.outer(row, row)
    return fim / sigma2


def rabi_frequency(params: AtomicParams, field_magnitude) -> np.ndarray | float:
    """RF Rabi frequency mu_RF*|E|/hbar for a field magnitude in V/m."""
    field_magnitude = np.asarray(field_magnitude, dtype=float)
    if np.any(field_magnitude < 0):
        raise ValueError("field magnitude must be nonnegative")
    out = params.rf_dipole * field_magnitude / constants.hbar
    return out if out.ndim else float(out)


def rf_field(scene: RfScene, x) -> np.ndarray | complex:
    """Total complex RF field at position(s) x: direct phasor sum."""
    x = np.asarray(x, dtype=float)
    k = scene.wavenumber
    total = scene.lo.amplitude * np.exp(
        1j * (k * x * np.sin(scene.lo.angle) + scene.lo.phase))
    for s in scene.signals:
        total = total + s.amplitude * np.exp(
            1j * (k * x * np.sin(s.angle) + s.phase))
    return total if np.ndim(total) else complex(total)


def scattering_rate(gamma: float, intensity_ratio,
                    detuning_ratio=0.0) -> np.ndarray | float:
    """Two-level photon scattering rate for I/I_sat and Delta/Gamma inputs."""
    intensity_ratio = np.asarray(intensity_ratio, dtype=float)
    if np.any(intensity_ratio < 0):
        raise ValueError("intensity ratio must be nonnegative")
    out = (gamma / 2) * intensity_ratio / (
        1 + intensity_ratio + 4 * np.asarray(detuning_ratio, dtype=float)**2)
    return out if out.ndim else float(out)


def susceptibility_prefactor(params: AtomicParams) -> float:
    """2*pi*N_a*mu_p^2 / (eps0*hbar), the scale of the susceptibility."""
    return (2 * np.pi * params.atom_density * params.probe_dipole**2
            / (constants.epsilon_0 * constants.hbar))


def susceptibility_full(params: AtomicParams, rf_rabi,
                        gamma_31: float = 0.0, gamma_41: float = 0.0,
                        probe_detuning: float = 0.0) -> np.ndarray | complex:
    """Complex susceptibility of the four-level ladder system.

    Evaluates the nested continued-fraction response for a local RF Rabi
    frequency (rad/s). Rydberg-state decay rates default to zero, the limit
    in which they are negligible against the intermediate-state decay; the
    probe detuning (rad/s) defaults to zero, the resonant probe that the
    runtime model assumes.
    """
    rf_rabi = np.asarray(rf_rabi, dtype=float)
    d_p = probe_detuning
    d_pc = probe_detuning + params.coupling_detuning
    d_pcr = d_pc + params.rf_detuning
    inner = gamma_41 - 1j * d_pcr
    if inner == 0:
        raise DegenerateDetuning("innermost denominator vanishes")
    mid = gamma_31 - 1j * d_pc + (rf_rabi**2 / 4) / inner
    if np.any(mid == 0):
        raise DegenerateDetuning("middle denominator vanishes")
    outer = params.decay_21 - 1j * d_p + (params.coupling_rabi**2 / 4) / mid
    if np.any(outer == 0):
        raise DegenerateDetuning("outer denominator vanishes")
    chi = 1j * susceptibility_prefactor(params) / outer
    return chi if chi.ndim else complex(chi)


def susceptibility_simplified(params: AtomicParams,
                              rf_rabi) -> np.ndarray | complex:
    """Susceptibility for an on-resonance probe with negligible Rydberg decay:
    the branch the linearized absorption model is built on.
    """
    rf_rabi = np.asarray(rf_rabi, dtype=float)
    d_c = params.coupling_detuning
    d_cr = d_c + params.rf_detuning
    if d_cr == 0:
        raise DegenerateDetuning("coupling_detuning + rf_detuning vanishes")
    inner = -1j * d_cr
    mid = -1j * d_c + (rf_rabi**2 / 4) / inner
    if np.any(mid == 0):
        raise DegenerateDetuning("middle denominator vanishes")
    outer = params.decay_21 + (params.coupling_rabi**2 / 4) / mid
    if np.any(outer == 0):
        raise DegenerateDetuning("outer denominator vanishes")
    chi = 1j * susceptibility_prefactor(params) / outer
    return chi if chi.ndim else complex(chi)


def sinc_response(delta_k: float, cell_length: float) -> float:
    """Whole-cell cosine integral L*sinc(dk*L) of the single-channel model."""
    u = delta_k * cell_length
    if abs(u) < 1e-8:
        return cell_length * (1 - u**2 / 6)
    return cell_length * np.sin(u) / u


def monotonic_length_bound(rf_wavelength: float) -> float:
    """Largest cell length keeping the integrated-power response monotone
    over the full bearing range: u1 * lambda / (4*pi), u1 = 4.493."""
    return SINC_MONOTONE_ROOT * rf_wavelength / (4 * np.pi)


def integrated_power_transmission(scene: RfScene, params: AtomicParams,
                                  cell_length: float) -> float:
    """Whole-cell power transmission of the linearized single-target model."""
    if scene.n_signals != 1:
        raise ValueError("integrated-power model is single-target only")
    dk = float(scene.delta_ks[0])
    dphi = float(scene.delta_phis[0])
    mod = float(physics.modulation_amplitudes(params, scene)[0])
    total = physics.absorption_dc(params, scene) * cell_length
    total += mod * _cosine_integral(dk, dphi, 0.0, cell_length)
    return float(np.exp(-total))


def _cosine_integral(dk: float, dphi: float, a: float, b: float) -> float:
    """Closed-form integral of cos(dk*x - dphi) over [a, b], stable at dk=0."""
    half = (b - a) / 2
    mid = (a + b) / 2
    u = dk * half
    if abs(u) < 1e-8:
        kernel = 2 * half * (1 - u**2 / 6)
    else:
        kernel = 2 * np.sin(u) / dk
    return kernel * np.cos(dk * mid - dphi)


def field_intensity_per_scene(scene: RfScene, x) -> np.ndarray | float:
    """|E_RF(x)|^2 expanded term by term: LO self-term, signal self-terms,
    signal-LO beats, and all signal-signal cross-terms."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    k = scene.wavenumber
    amps = np.array([s.amplitude for s in scene.signals])
    out = np.full(x.shape, scene.lo.amplitude**2 + np.sum(amps**2))
    dks = scene.delta_ks
    dphis = scene.delta_phis
    for a_i, dk, dphi in zip(amps, dks, dphis):
        out = out + 2 * scene.lo.amplitude * a_i * np.cos(dk * x - dphi)
    sigs = scene.signals
    for i in range(len(sigs)):
        for m in range(i + 1, len(sigs)):
            beat_k = k * (np.sin(sigs[i].angle) - np.sin(sigs[m].angle))
            beat_phi = sigs[i].phase - sigs[m].phase
            out = out + 2 * sigs[i].amplitude * sigs[m].amplitude * np.cos(
                beat_k * x + beat_phi)
    return out if out.ndim else float(out)


def absorption_exact_per_scene(params: AtomicParams, scene: RfScene,
                               x) -> np.ndarray | float:
    """Exact local absorption coefficient alpha(x) = C*f(|E_RF(x)|^2)."""
    c_scale, _ = linearization_constants(params)
    return c_scale * intensity_response(params,
                                        field_intensity_per_scene(scene, x))


def integrals_quad_vec(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of f over each interval [lo_i, hi_i], all at once by
    scipy's adaptive quad_vec, to 1e-13 of the vector's norm."""
    width = hi - lo
    return quad_vec(lambda t: width * f(lo + t * width), 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-13, limit=400)[0]


def fluorescence_readout_per_scene(
        scene: RfScene, geometry: SensorGeometry, params: AtomicParams
) -> tuple[FluorescenceProfile, MeasurementVector]:
    """Propagate, window, calibrate one scene through scipy's quadrature;
    returns (profile, measurements). The depth is the running sum of the
    absorption's integral over each grid interval, and each measurement
    the integral of the absorption less its LO-only background over a
    window clipped to the cell."""
    x = geometry.grid(scene.rf_wavelength)
    dc = physics.absorption_dc(params, scene)
    steps = integrals_quad_vec(
        lambda u: absorption_exact_per_scene(params, scene, u), x[:-1], x[1:])
    profile = FluorescenceProfile(positions=x, optical_depth=np.concatenate(
        ([0.0], np.cumsum(steps))))
    lo, hi = geometry.window_edges
    values = integrals_quad_vec(
        lambda u: absorption_exact_per_scene(params, scene, u) - dc,
        lo, np.minimum(hi, geometry.cell_length))
    return profile, MeasurementVector(values=values, geometry=geometry)


def greedy_signal_roots(roots: np.ndarray, n_targets: int, delta: float,
                        angle_floor: float = 0.0
                        ) -> tuple[np.ndarray, int]:
    """estimation.select_signal_roots on one root set, one pick at a time.

    Roots are ranked by distance from the unit circle; the DC guard
    rejects |arg z| below angle_floor. Ties on circle distance prefer the
    candidate farthest in angle from those already chosen. Returns
    (representatives, usable count); the representatives are all NaN when
    fewer than n_targets roots are usable.
    """
    roots = np.asarray(roots, dtype=complex)
    angles = np.angle(roots)
    # One representative per conjugate pair: the positive-imag member, plus
    # real negative roots (self-conjugate at the folding frequency).
    is_rep = (roots.imag > 0) | ((roots.imag == 0) & (roots.real < 0))
    keep = is_rep & (np.abs(angles) >= angle_floor) \
        & (np.abs(np.abs(roots) - 1.0) <= delta)
    candidates = roots[keep]
    if len(candidates) < n_targets:
        return np.full(n_targets, np.nan, dtype=complex), len(candidates)
    dist = np.abs(np.abs(candidates) - 1.0)
    chosen: list[complex] = []
    remaining = list(range(len(candidates)))
    while len(chosen) < n_targets:
        best = min(dist[i] for i in remaining)
        tied = [i for i in remaining if dist[i] <= best + 1e-12]
        if len(tied) > 1 and chosen:
            sep = [min(abs(abs(np.angle(candidates[i]))
                           - abs(np.angle(c))) for c in chosen)
                   for i in tied]
            pick = tied[int(np.argmax(sep))]
        else:
            pick = tied[0]
        chosen.append(candidates[pick])
        remaining.remove(pick)
    return np.array(chosen, dtype=complex), len(candidates)


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def fluorescence_csv_rowwise(positions, fluorescence) -> str:
    """The fluorescence CSV text of two columns, one row at a time."""
    rows = "".join(f"{x:.17g},{f:.17g}\n" for x, f in
                   zip(positions.tolist(), fluorescence.tolist()))
    return "x_m,fluorescence\n" + rows


def measurement_csv_rowwise(measurement) -> str:
    rows = ((str(j + 1), _fmt(x), _fmt(v)) for j, (x, v) in
            enumerate(zip(measurement.geometry.centers, measurement.values)))
    return _csv_text(["j", "x_j_m", "y_tilde"], rows)


def crlb_csv_rowwise(report, thetas_rad) -> str:
    rows = ((str(i + 1), _fmt(np.rad2deg(t)), _fmt(np.rad2deg(s)))
            for i, (t, s) in enumerate(zip(thetas_rad,
                                           report.per_target_std)))
    return _csv_text(["target", "theta_deg", "crlb_std_deg"], rows)


def sweep_csv_rowwise(result) -> str:
    rows = []
    bounds = result.crlb_std_rad or (None,) * len(result.values)
    for value, cell, bound in zip(result.values, result.cells, bounds):
        rmse = cell.rmse_rad
        rmse_txt = "" if np.isnan(rmse) else _fmt(np.rad2deg(rmse))
        bound_txt = "" if bound is None else _fmt(np.rad2deg(bound))
        rows.append((_fmt(value), rmse_txt, bound_txt,
                     str(cell.trials), str(cell.failures)))
    return _csv_text(
        ["axis_value", "rmse_deg", "crlb_deg", "trials", "failures"], rows)


def linearization_csv_rowwise(check) -> str:
    rows = ((_fmt(x), _fmt(ew), _fmt(lw), _fmt(es), _fmt(ls))
            for x, ew, lw, es, ls in zip(
                check.positions, check.exact_weak, check.linear_weak,
                check.exact_strong, check.linear_strong))
    return _csv_text(["x_m", "alpha_exact_weak", "alpha_lin_weak",
                      "alpha_exact_strong", "alpha_lin_strong"], rows)


def sampling_demo_csv_rowwise(result) -> str:
    header = ["angle_deg"] + [f"power_{label}" for label in result.labels]
    columns = list(result.power)
    rows = ([_fmt(a)] + [_fmt(col[i]) for col in columns]
            for i, a in enumerate(result.angles_deg))
    return _csv_text(header, rows)
