"""Fisher information and Cramer-Rao bounds for the sum-of-sinusoids
channel model, with amplitudes and phases treated as nuisance parameters.

Parameter ordering throughout is (dk_1..dk_N, dphi_1..dphi_N, A_1..A_N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EndFireSingularity, RydbergDoaError, SingularNuisanceBlock
from .sensing import SensorGeometry, window_integrals

END_FIRE_GUARD = 1e-9


@dataclass(frozen=True)
class FimInputs:
    """Geometry, sinusoid parameters, and the variance sigma2 of the white
    noise on every channel."""

    geometry: SensorGeometry
    delta_ks: np.ndarray
    delta_phis: np.ndarray
    amplitudes: np.ndarray
    sigma2: float = 1.0

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
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("noise variance must be positive and finite")

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


def fisher_information(jacobian: np.ndarray, sigma2: float) -> np.ndarray:
    """J^T J / sigma2: the FIM of the mean under white noise."""
    jacobian = np.asarray(jacobian, dtype=float)
    # Weighting J by w twice rounds as the Cholesky solve of sigma2 * I
    # (factor sqrt(sigma2) * I) that it replaces, so every bound keeps its
    # bits; J.T @ J / sigma2 would move their last digits.
    w = 1 / np.sqrt(sigma2)
    fim = jacobian.T @ (jacobian * w * w)
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


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise RydbergDoaError("the Fisher information or its bound is not "
                              "finite: the noise variance is out of range")
    return matrix


def crlb_report(inputs: FimInputs, thetas: np.ndarray,
                wavenumber: float) -> CrlbReport:
    """Full bound pipeline: FIM, Schur marginalization, angle bound. An
    FIM, effective FIM, bound or bound std that is not finite (a negative
    variance makes a NaN std) is a domain error."""
    with np.errstate(over="ignore", invalid="ignore"):
        fim = _finite(fisher_information(mean_jacobian(inputs), inputs.sigma2))
        eff = _finite(effective_fim(fim, inputs.n_targets))
        bound, stds = angle_crlb(eff, thetas, wavenumber)
    return CrlbReport(fim=fim, effective_fim_dk=eff, crlb_theta=_finite(bound),
                      per_target_std=_finite(stds),
                      condition_number=float(np.linalg.cond(eff)))
