"""Fisher information and Cramer-Rao bounds for the sum-of-sinusoids
channel model, with amplitudes and phases treated as nuisance parameters.

mean_jacobian's parameter ordering is (dk_1..dk_N, dphi_1..dphi_N, A_1..A_N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EndFireSingularity, RydbergDoaError, SingularNuisanceBlock
from .sensing import SensorGeometry, window_integrals

END_FIRE_GUARD = 1e-9


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


def mean_jacobian(geometry: SensorGeometry, delta_ks: np.ndarray,
                  delta_phis: np.ndarray,
                  amplitudes: np.ndarray) -> np.ndarray:
    """K x 3N Jacobian of the mean vector: columns are A_i*t_i for the
    frequencies, A_i*s_i for the phases, and c_i for the amplitudes."""
    n = len(delta_ks)
    jac = np.zeros((geometry.channel_count, 3 * n))
    for i in range(n):
        c_vec, s_vec, t_vec = window_integrals(geometry, delta_ks[i],
                                               delta_phis[i])
        amp = amplitudes[i]
        jac[:, i] = amp * t_vec
        jac[:, n + i] = amp * s_vec
        jac[:, 2 * n + i] = c_vec
    return jac


def fisher_information(jacobian: np.ndarray, sigma2: float) -> np.ndarray:
    """J^T J / sigma2, the FIM of the mean under white noise: the channels'
    outer products summed in order, on a C-ordered copy whatever the
    Jacobian's layout, so no BLAS kernel touches its bits."""
    jacobian = np.ascontiguousarray(jacobian, dtype=float)
    return np.add.reduce(jacobian[:, :, None] * jacobian[:, None, :],
                         axis=0) / sigma2


def effective_fim(fim: np.ndarray, n_interest: int) -> np.ndarray:
    """Schur complement of the nuisance block: information left about the
    first n_interest parameters after jointly estimating the rest, which
    are eliminated one at a time, last first, by elementwise steps."""
    eff = np.array(fim, dtype=float)
    for k in range(len(eff) - 1, n_interest - 1, -1):
        pivot = eff[k, k]
        if not pivot > 0:
            raise SingularNuisanceBlock("nuisance block is singular")
        eff = eff[:k, :k] - np.multiply.outer(eff[:k, k], eff[k, :k]) / pivot
    return eff


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


def crlb_report(jacobian: np.ndarray, sigma2: float, thetas: np.ndarray,
                wavenumber: float) -> CrlbReport:
    """Full bound pipeline for any mean-vector Jacobian under white noise
    of variance sigma2: FIM, Schur marginalization, angle bound. The first
    len(thetas) columns are the targets' frequencies; every later column
    is a nuisance. An FIM, effective FIM, bound or bound std that is not
    finite (a negative variance makes a NaN std) is a domain error."""
    if not 0 < sigma2 < np.inf:
        raise RydbergDoaError("noise variance must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        fim = _finite(fisher_information(jacobian, sigma2))
        eff = _finite(effective_fim(fim, len(thetas)))
        bound, stds = angle_crlb(eff, thetas, wavenumber)
    return CrlbReport(fim=fim, effective_fim_dk=eff, crlb_theta=_finite(bound),
                      per_target_std=_finite(stds),
                      condition_number=float(np.linalg.cond(eff)))
