"""Fisher information and Cramer-Rao bounds for the sum-of-sinusoids
channel model, with amplitudes and phases treated as nuisance parameters.

Parameter ordering throughout is (dk_1..dk_N, dphi_1..dphi_N, A_1..A_N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EndFireSingularity,
    SingularCovariance,
    SingularNuisanceBlock,
)
from .sensing import SensorGeometry

END_FIRE_GUARD = 1e-9


@dataclass(frozen=True)
class FimInputs:
    """Geometry, sinusoid parameters, and noise covariance for the FIM."""

    geometry: SensorGeometry
    delta_ks: np.ndarray
    delta_phis: np.ndarray
    amplitudes: np.ndarray
    noise_cov: np.ndarray = field(default=None)  # defaults to identity

    def __post_init__(self):
        for name in ("delta_ks", "delta_phis", "amplitudes"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.delta_ks)
        if len(self.delta_phis) != n or len(self.amplitudes) != n:
            raise ValueError("parameter lists must share a length")
        if np.any(self.amplitudes == 0):
            raise ValueError("zero-amplitude targets make the FIM singular")
        k = self.geometry.channel_count
        cov = self.noise_cov
        cov = np.eye(k) if cov is None else np.asarray(cov, dtype=float)
        if cov.shape != (k, k):
            raise ValueError("noise covariance must be K x K")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=0):
            raise ValueError("noise covariance must be symmetric")
        cov = cov.copy()
        cov.flags.writeable = False
        object.__setattr__(self, "noise_cov", cov)

    @property
    def n_targets(self) -> int:
        return len(self.delta_ks)


@dataclass(frozen=True)
class CrlbReport:
    """Full FIM, nuisance-marginalized frequency FIM, and the angle bound."""

    fim: np.ndarray
    effective_fim_dk: np.ndarray
    crlb_theta: np.ndarray
    per_target_std: np.ndarray
    condition_number: float

    def __post_init__(self):
        for name in ("fim", "effective_fim_dk", "crlb_theta",
                     "per_target_std"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _window_kernels(dk: float, half_width: float) -> tuple[float, float]:
    """(even, odd) moments of a centered window of half-width h:
    integral of cos(dk*u) du and of u*sin(dk*u) du over [-h, h]."""
    u = dk * half_width
    if abs(u) < 1e-6:
        even = 2 * half_width * (1 - u**2 / 6 + u**4 / 120)
        odd = 2 * half_width**2 * (u / 3 - u**3 / 30)
    else:
        even = 2 * np.sin(u) / dk
        odd = 2 * half_width**2 * (np.sin(u) - u * np.cos(u)) / u**2
    return even, odd


def window_integrals(geometry: SensorGeometry, dk: float, dphi: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form per-window integrals of cos(dk*x - dphi),
    sin(dk*x - dphi), and -x*sin(dk*x - dphi).

    These are the building blocks of the mean-vector Jacobian. The dk -> 0
    limit is handled by series expansion of the window kernels.
    """
    centers = geometry.centers
    half = geometry.window_width / 2
    even, odd = _window_kernels(dk, half)
    psi = dk * centers - dphi
    cos_vec = even * np.cos(psi)
    sin_vec = even * np.sin(psi)
    pos_sin_vec = -(centers * even * np.sin(psi) + odd * np.cos(psi))
    return cos_vec, sin_vec, pos_sin_vec


def mean_jacobian(inputs: FimInputs) -> np.ndarray:
    """K x 3N Jacobian of the mean vector: columns are A_i*t_i for the
    frequencies, A_i*s_i for the phases, and c_i for the amplitudes."""
    n = inputs.n_targets
    k = inputs.geometry.channel_count
    jac = np.zeros((k, 3 * n))
    for i in range(n):
        c_vec, s_vec, t_vec = window_integrals(
            inputs.geometry, inputs.delta_ks[i], inputs.delta_phis[i])
        amp = inputs.amplitudes[i]
        jac[:, i] = amp * t_vec
        jac[:, n + i] = amp * s_vec
        jac[:, 2 * n + i] = c_vec
    return jac


def fisher_information(jacobian: np.ndarray,
                       noise_cov: np.ndarray) -> np.ndarray:
    """J^T Sigma^-1 J through a Cholesky factorization Sigma = L L^T."""
    jacobian = np.asarray(jacobian, dtype=float)
    try:
        lower = np.linalg.cholesky(np.asarray(noise_cov, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("noise covariance is not positive definite"
                                 ) from exc
    fim = jacobian.T @ np.linalg.solve(lower.T,
                                       np.linalg.solve(lower, jacobian))
    return (fim + fim.T) / 2


def effective_fim(fim: np.ndarray, n_interest: int) -> np.ndarray:
    """Schur complement of the nuisance block: information left about the
    first n_interest parameters after jointly estimating the rest."""
    fim = np.asarray(fim, dtype=float)
    head = fim[:n_interest, :n_interest]
    coupling = fim[:n_interest, n_interest:]
    nuisance = fim[n_interest:, n_interest:]
    if nuisance.size == 0:
        return head.copy()
    try:
        solved = np.linalg.solve(nuisance, coupling.T)
    except np.linalg.LinAlgError as exc:
        raise SingularNuisanceBlock("nuisance block is singular") from exc
    eff = head - coupling @ solved
    return (eff + eff.T) / 2


def angle_crlb(effective_fim_dk: np.ndarray, thetas: np.ndarray,
               wavenumber: float) -> tuple[np.ndarray, np.ndarray]:
    """Angle-domain covariance bound and per-target standard deviations.

    The frequency-to-angle Jacobian is diag(-k cos(theta)); the bound
    diverges at end-fire, guarded at pi/2 - 1e-9.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(np.abs(thetas) >= np.pi / 2 - END_FIRE_GUARD):
        raise EndFireSingularity("bound diverges at end-fire bearings")
    inv_jac = 1.0 / (-wavenumber * np.cos(thetas))
    inv_eff = np.linalg.inv(np.asarray(effective_fim_dk, dtype=float))
    bound = inv_jac[:, None] * inv_eff * inv_jac[None, :]
    return bound, np.sqrt(np.diag(bound))


def crlb_report(inputs: FimInputs, thetas: np.ndarray,
                wavenumber: float) -> CrlbReport:
    """Full bound pipeline: FIM, Schur marginalization, angle bound."""
    fim = fisher_information(mean_jacobian(inputs), inputs.noise_cov)
    eff = effective_fim(fim, inputs.n_targets)
    bound, stds = angle_crlb(eff, thetas, wavenumber)
    return CrlbReport(fim=fim, effective_fim_dk=eff, crlb_theta=bound,
                      per_target_std=stds,
                      condition_number=float(np.linalg.cond(eff)))
