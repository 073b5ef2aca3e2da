"""Fisher information and Cramer-Rao bounds of a mean-vector Jacobian
under white noise: its first N columns are the targets' frequencies, and
every later column is a nuisance parameter, marginalized out. Inputs may
carry leading axes, each row equal to its one-row call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (EndFireSingularity, RydbergDoaError,
                     SingularNuisanceBlock, read_only_copy)

END_FIRE_GUARD = 1e-9


@dataclass(frozen=True)
class CrlbReport:
    """Full FIM, nuisance-marginalized frequency FIM, and the angle bound."""

    fim: np.ndarray
    effective_fim_dk: np.ndarray
    crlb_theta: np.ndarray
    per_target_std: np.ndarray
    condition_number: float | np.ndarray

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            object.__setattr__(self, field.name, read_only_copy(value, float)
                               if np.ndim(value) else float(value))


def fisher_information(jacobian: np.ndarray, sigma2) -> np.ndarray:
    """J^T J / sigma2, the FIM of the mean under white noise. For P > 1
    the channels' outer products are summed in order on a C-ordered copy,
    so no BLAS kernel or layout moves the bits, and a channel of zeros
    adds +0.0 (numpy sums P = 1 pairwise)."""
    jacobian = np.ascontiguousarray(jacobian, dtype=float)
    return np.add.reduce(jacobian[..., None] * jacobian[..., None, :],
                         axis=-3) / np.asarray(sigma2)[..., None, None]


def effective_fim(fim: np.ndarray, n_interest: int) -> np.ndarray:
    """Schur complement of the nuisance block: information left about the
    first n_interest parameters after jointly estimating the rest, which
    are eliminated one at a time, last first, by elementwise steps."""
    eff = np.array(fim, dtype=float)
    for k in range(eff.shape[-1] - 1, n_interest - 1, -1):
        pivot = eff[..., k:k + 1, k:k + 1]
        if not pivot.min() > 0:  # a NaN pivot makes the minimum NaN
            raise SingularNuisanceBlock("nuisance block is singular")
        eff = (eff[..., :k, :k]
               - eff[..., :k, k:k + 1] * eff[..., k:k + 1, :k] / pivot)
    return eff


def angle_crlb(effective_fim_dk: np.ndarray, thetas: np.ndarray,
               wavenumber: float) -> tuple[np.ndarray, np.ndarray]:
    """Angle-domain covariance bound and per-target standard deviations.

    The frequency-to-angle Jacobian is diag(-k cos(theta)). The bound
    diverges at end-fire (guarded at pi/2 - 1e-9) and at a singular FIM.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if (np.abs(thetas) >= np.pi / 2 - END_FIRE_GUARD).any():
        raise EndFireSingularity("bound diverges at end-fire bearings")
    inv_jac = 1.0 / (-wavenumber * np.cos(thetas))
    try:
        inv_eff = np.linalg.inv(np.asarray(effective_fim_dk, dtype=float))
    except np.linalg.LinAlgError:
        raise RydbergDoaError("the effective Fisher information is "
                              "singular: the bound is undefined") from None
    bound = inv_jac[..., :, None] * inv_eff * inv_jac[..., None, :]
    return bound, np.sqrt(np.diagonal(bound, axis1=-2, axis2=-1))


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise RydbergDoaError("the Fisher information or its bound is not "
                              "finite: the noise variance is out of range")
    return matrix


def crlb_report_batch(jacobian: np.ndarray, sigma2, thetas: np.ndarray,
                      wavenumber: float) -> CrlbReport:
    """FIM, Schur marginalization and angle bound of mean-vector Jacobians
    (..., K, P) under white noise of variance sigma2; every field keeps the
    leading axes. The first N columns are the frequencies of targets at
    thetas (..., N), the rest nuisances. Domain errors, checked over the
    stack in turn: a variance outside (0, inf); K < P, which makes the FIM
    singular; an FIM, effective FIM, bound or std that is not finite."""
    if not all(0 < s < np.inf for s in np.ravel(sigma2).tolist()):
        raise RydbergDoaError("noise variance must be positive and finite")
    if np.shape(jacobian)[-2] < np.shape(jacobian)[-1]:
        raise RydbergDoaError("the bound needs a channel per parameter: K = "
                              "%d channels for %d parameters"
                              % np.shape(jacobian)[-2:])
    with np.errstate(all="ignore"):
        fim = _finite(fisher_information(jacobian, sigma2))
        eff = _finite(effective_fim(fim, np.shape(thetas)[-1]))
        bound, stds = angle_crlb(eff, thetas, wavenumber)
        singular = np.linalg.svd(eff, compute_uv=False)  # np.linalg.cond
        cond = singular[..., 0] / singular[..., -1]
    return CrlbReport(fim=fim, effective_fim_dk=eff, crlb_theta=_finite(bound),
                      per_target_std=_finite(stds), condition_number=cond)


def crlb_report(jacobian: np.ndarray, sigma2: float, thetas: np.ndarray,
                wavenumber: float) -> CrlbReport:
    """crlb_report_batch of one K x P Jacobian, without leading axes."""
    return crlb_report_batch(jacobian, sigma2, thetas, wavenumber)
