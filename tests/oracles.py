"""Independent reference computations that the tests check the runtime
paths against. They are deliberately slower or built on other libraries
(scipy's Cholesky solve, trapezoid quadrature, csv.writer) so that they
share no code path with what they check. The closed forms (Rabi
frequency, phasor field sum, two-level scattering rate) are textbook
formulas that only the tests evaluate. The CSV renderers at the end build
each output file row by row, one f-string .17g per value, as the writers
did before they formatted whole columns at once.
"""

import csv
import io

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from rydberg_doa.crlb import FimInputs, window_integrals
from rydberg_doa.errors import SingularCovariance, WindowOutOfCell
from rydberg_doa.physics import AtomicParams, RfScene
from rydberg_doa.sensing import SampledAbsorption, SensorGeometry


def window_integrals_quadrature(geometry: SensorGeometry, dk: float,
                                dphi: float, points: int = 10_001
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoid-rule evaluation of crlb.window_integrals, for testing the
    closed forms."""
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


def _window_integral(x: np.ndarray, v: np.ndarray, a: float, b: float) -> float:
    """Trapezoid of samples (x, v) over [a, b], interpolating the edges."""
    inside = (x > a) & (x < b)
    xs = np.concatenate(([a], x[inside], [b]))
    vs = np.concatenate(([np.interp(a, x, v)], v[inside], [np.interp(b, x, v)]))
    return float(np.trapezoid(vs, xs))


def channel_measurements_per_window(alpha_sampled: SampledAbsorption,
                                    geometry: SensorGeometry) -> np.ndarray:
    """sensing.channel_measurements one window at a time: scalar edges,
    a boolean interior mask and a 1-D np.trapezoid per window."""
    x, v = alpha_sampled
    tol = 1e-9 * geometry.cell_length
    half = geometry.window_width / 2
    out = np.empty(geometry.channel_count)
    for j in range(geometry.channel_count):
        c = geometry.first_center + geometry.spacing * j
        a, b = c - half, c + half
        if a < x[0] - tol or b > x[-1] + tol:
            raise WindowOutOfCell(
                f"window {j + 1} [{a:g}, {b:g}] outside sampled domain")
        out[j] = _window_integral(x, v, max(a, x[0]), min(b, x[-1]))
    return out


def fisher_information_blocks(inputs: FimInputs) -> np.ndarray:
    """Assemble the FIM from its 3x3 block structure of weighted inner
    products; independent of the Jacobian path, used for cross-checking."""
    n = inputs.n_targets
    try:
        factor = cho_factor(inputs.noise_cov, lower=True)
    except LinAlgError as exc:
        raise SingularCovariance("noise covariance is not positive definite"
                                 ) from exc
    cs, ss, ts = [], [], []
    for i in range(n):
        c_vec, s_vec, t_vec = window_integrals(
            inputs.geometry, inputs.delta_ks[i], inputs.delta_phis[i])
        cs.append(c_vec)
        ss.append(s_vec)
        ts.append(t_vec)

    def inner(a, b):
        return float(a @ cho_solve(factor, b))

    amp = inputs.amplitudes
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
    """J^T Sigma^-1 J through scipy's cho_factor/cho_solve, symmetrized as
    crlb.fisher_information does."""
    fim = jacobian.T @ cho_solve(cho_factor(noise_cov, lower=True), jacobian)
    return (fim + fim.T) / 2


def rabi_frequency(params: AtomicParams, field_magnitude) -> np.ndarray | float:
    """RF Rabi frequency mu_RF*|E|/hbar for a field magnitude in V/m."""
    field_magnitude = np.asarray(field_magnitude, dtype=float)
    if np.any(field_magnitude < 0):
        raise ValueError("field magnitude must be nonnegative")
    out = params.rf_dipole * field_magnitude / params.reduced_planck
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


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def fluorescence_csv_rowwise(profile) -> str:
    """serialize.write_fluorescence_csv's text, one row at a time."""
    rows = "".join(
        f"{x:.17g},{p:.17g},{f:.17g}\n" for x, p, f in
        zip(profile.positions.tolist(), profile.probe_power.tolist(),
            profile.fluorescence.tolist()))
    return "x_m,probe_power,fluorescence\n" + rows


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
    for value, rmse, bound, fails in zip(result.values, result.rmse_rad,
                                         bounds, result.failures):
        rmse_txt = "" if np.isnan(rmse) else _fmt(np.rad2deg(rmse))
        bound_txt = "" if bound is None else _fmt(np.rad2deg(bound))
        rows.append((_fmt(value), rmse_txt, bound_txt,
                     str(result.trials), str(fails)))
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
    header = ["angle_deg"] + [f"power_{c.label}" for c in result.curves]
    columns = [c.power for c in result.curves]
    rows = ([_fmt(a)] + [_fmt(col[i]) for col in columns]
            for i, a in enumerate(result.angles_deg))
    return _csv_text(header, rows)
