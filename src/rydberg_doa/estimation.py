"""Prony spectral estimation: linear prediction on the channel samples,
characteristic-polynomial rooting, signal-root selection, and the inverse
map from spatial frequency to bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSamples,
    InsufficientSignalRoots,
    RootfindingFailure,
)

# Roots within this |arg z| band of DC are calibration-residual leakage,
# not resolvable signal frequencies; the guard scales as 2*pi/(4K).
DC_GUARD_CYCLES = 0.25

ROOT_RESIDUAL_TOL = 1e-8
CLAMP_TOL = 1e-6


@dataclass(frozen=True)
class PronyConfig:
    """Model order, target count and root-selection settings.

    Every estimate holds target_count N bearings, so a Monte Carlo RMSE
    scores all N targets of each successful trial. model_order p must
    satisfy 2N <= p < K.
    """

    model_order: int
    target_count: int
    unit_circle_tolerance: float = 0.2

    def __post_init__(self):
        if self.model_order < 1:
            raise ValueError("model_order must be at least 1")
        if not 0 < self.unit_circle_tolerance < 1:
            raise ValueError("unit_circle_tolerance must lie in (0, 1)")
        if self.target_count < 1:
            raise ValueError("target_count must be at least 1")
        if self.model_order < 2 * self.target_count:
            raise ValueError("model_order must be at least 2*target_count")


@dataclass(frozen=True)
class EstimationResult:
    """Recovered spatial frequencies and bearings plus solver diagnostics.

    roots holds the selected near-unit-circle representatives (one per
    conjugate pair, positive angle), aligned with spatial_frequencies.
    """

    spatial_frequencies: np.ndarray
    doas: np.ndarray
    roots: np.ndarray
    lpc_coefficients: np.ndarray
    lpc_residual_norm: float
    clamped_flags: np.ndarray
    rank_deficient: bool = False

    def __post_init__(self):
        for name in ("spatial_frequencies", "doas", "roots",
                     "lpc_coefficients", "clamped_flags"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if len(self.spatial_frequencies) != len(self.doas):
            raise ValueError("frequency and DoA counts must agree")


def build_hankel(values: np.ndarray, order: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Linear prediction system for samples y: row r predicts y[p+r] from
    the p preceding samples. Returns (matrix, rhs) with K-p rows; leading
    axes of values stack independent systems."""
    y = np.asarray(values, dtype=float)
    k = y.shape[-1]
    if not 1 <= order < k:
        raise InsufficientSamples(
            f"need K > p >= 1, got K={k}, p={order}")
    rows = k - order
    idx = order + np.arange(rows)[:, None] - (1 + np.arange(order))[None, :]
    return y[..., idx], -y[..., order:]


def solve_lpc(matrix: np.ndarray, rhs: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares prediction coefficients via SVD, per stacked system.

    Minimum-norm when a system is rank deficient, with the default cutoff
    of np.linalg.lstsq: singular values at or below eps * max(rows, p)
    times the largest are dropped. Returns (a, residual_norm,
    rank_deficient) with the leading axes of matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.size == 0:
        raise InsufficientSamples("empty prediction system")
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    rows, order = matrix.shape[-2:]
    kept = s > np.finfo(float).eps * max(rows, order) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    proj = (np.swapaxes(u, -1, -2) @ rhs[..., None])[..., 0]
    coeffs = (np.swapaxes(vh, -1, -2) @ (inv * proj)[..., None])[..., 0]
    residual = np.linalg.norm((matrix @ coeffs[..., None])[..., 0] - rhs,
                              axis=-1)
    return coeffs, residual, kept.sum(axis=-1) < order


def _polyval(poly: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval row by row: poly (..., n) at x (..., m), by Horner's rule
    in np.polyval's operation order."""
    y = np.zeros_like(x)
    for j in range(poly.shape[-1]):
        y = y * x + poly[..., j, None]
    return y


def char_poly_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of z^p + a_1 z^(p-1) + ... + a_p as the eigenvalues of its
    companion matrix; leading axes of coeffs stack independent polynomials.

    Companion eigenvalues are backward stable, so the roots are used as
    computed. Returns (roots, residual): residual is each polynomial's
    worst |P(z)| / (1 + |z|^p) over its roots, for the caller's gate.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("prediction coefficients must be finite")
    order = coeffs.shape[-1]
    monic = np.concatenate((np.ones(coeffs.shape[:-1] + (1,)), coeffs),
                           axis=-1)
    companion = np.zeros(coeffs.shape + (order,))
    companion[..., 0, :] = -coeffs
    companion[..., np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion).astype(complex)
    residual = np.abs(_polyval(monic, roots)) / (1.0 + np.abs(roots) ** order)
    return roots, residual.max(axis=-1, initial=0.0)


def select_signal_roots(roots: np.ndarray, n_targets: int, delta: float,
                        angle_floor: float = 0.0
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Pick one representative per conjugate pair for the N = n_targets
    signal roots of each set, over leading axes of stacked root sets.

    Usable roots are pair representatives (positive imaginary part, or
    real and negative: self-conjugate at the folding frequency) within
    delta of the unit circle and clear of the DC guard, |arg z| >=
    angle_floor. Each step takes the usable root nearest the circle; of
    those within 1e-12 of that distance, the one farthest in |arg z| from
    the roots already chosen, then the lowest index. Returns
    (representatives, usable counts): N columns per set, all NaN on sets
    with fewer usable roots than targets, so no set is scored on fewer.
    """
    roots = np.asarray(roots, dtype=complex)
    lead, order = roots.shape[:-1], roots.shape[-1]
    z = roots.reshape(-1, order)
    dist = np.abs(np.abs(z) - 1.0)
    arg = np.abs(np.angle(z))
    usable = ((z.imag > 0) | ((z.imag == 0) & (z.real < 0))) \
        & (arg >= angle_floor) & (dist <= delta)
    found = usable.sum(axis=-1)
    dist = np.where(usable, dist, np.inf)
    rows = np.arange(len(z))
    reps = np.empty((len(z), n_targets), dtype=complex)
    # Separation from the chosen roots; infinite before the first pick, so
    # that step takes the lowest tied index.
    sep = np.full(z.shape, np.inf)
    for j in range(n_targets):
        tied = dist <= dist.min(axis=-1, keepdims=True) + 1e-12
        pick = np.where(tied, sep, -1.0).argmax(axis=-1)
        sep = np.minimum(sep, np.abs(arg - arg[rows, pick, None]))
        reps[:, j] = z[rows, pick]
        dist[rows, pick] = np.inf
    reps[found < n_targets] = np.nan
    return reps.reshape(lead + (n_targets,)), found.reshape(lead)


def frequencies_from_roots(representatives: np.ndarray,
                           spacing: float) -> np.ndarray:
    """Spatial frequencies arg(z)/spacing, mapped into (0, pi/spacing]."""
    if spacing <= 0:
        raise ValueError("spacing must be strictly positive")
    angles = np.abs(np.angle(np.asarray(representatives, dtype=complex)))
    return angles / spacing


def doa_from_frequency(delta_k, wavenumber: float, lo_angle: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Bearing arcsin(sin(theta_0) - dk/k), elementwise; out-of-range
    arguments are clamped and flagged when they exceed the clamp
    tolerance. Returns (bearings, clamped flags)."""
    if wavenumber <= 0:
        raise ValueError("wavenumber must be strictly positive")
    arg = np.sin(lo_angle) - np.asarray(delta_k, dtype=float) / wavenumber
    clamped = np.abs(arg) > 1 + CLAMP_TOL
    return np.arcsin(np.clip(arg, -1.0, 1.0)), clamped


@dataclass(frozen=True)
class BatchEstimate:
    """Prony results for a stack of T measurement vectors, row by row.

    Arrays have T rows, and the per-target ones the config's target_count
    N columns: a successful row holds all N bearings, a failed row NaN
    (clamped flags False), so an RMSE over the successful rows scores all
    N targets. errors[t] is the exception row t raised, or None when it
    succeeded; failed[t] is True exactly where errors[t] is not None.
    """

    spatial_frequencies: np.ndarray
    doas: np.ndarray
    roots: np.ndarray
    lpc_coefficients: np.ndarray
    lpc_residual_norm: np.ndarray
    clamped_flags: np.ndarray
    rank_deficient: np.ndarray
    errors: tuple
    failed: np.ndarray

    def result(self, row: int) -> EstimationResult:
        """Row as an EstimationResult; raises the row's failure."""
        if self.errors[row] is not None:
            raise self.errors[row]
        return EstimationResult(
            spatial_frequencies=self.spatial_frequencies[row],
            doas=self.doas[row], roots=self.roots[row],
            lpc_coefficients=self.lpc_coefficients[row],
            lpc_residual_norm=float(self.lpc_residual_norm[row]),
            clamped_flags=self.clamped_flags[row],
            rank_deficient=bool(self.rank_deficient[row]))


def estimate_doa_batch(measurements, scene_meta: tuple[float, float],
                       config: PronyConfig) -> BatchEstimate:
    """Full Prony pipeline on a stack of calibrated measurement vectors.

    measurements.values is (T, K), or (K,) for one vector. Each stage runs
    once over the whole stack, and row t equals the pipeline on row t
    alone. A row whose prediction coefficients are not finite, whose roots
    fail the residual check or that has too few signal roots records its
    exception instead of raising.
    """
    wavenumber, lo_angle = scene_meta
    values = np.atleast_2d(measurements.values)
    spacing = measurements.geometry.spacing
    n_rows, k_samples = values.shape
    matrix, rhs = build_hankel(values, config.model_order)
    # A row whose coefficients overflowed has no polynomial to root: it
    # roots zeros in their place and fails alone as a RootfindingFailure,
    # so numpy's overflow and invalid-value warnings on it are not raised,
    # and finite rows are rooted exactly as they would be without it.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, residual, rank_deficient = solve_lpc(matrix, rhs)
        finite = np.isfinite(coeffs).all(axis=-1)
        roots, root_residual = char_poly_roots(
            np.where(finite[:, None], coeffs, 0.0))
        root_failed = ~finite | (root_residual > ROOT_RESIDUAL_TOL
                                 * np.maximum(1.0, np.abs(coeffs).max(
                                     axis=-1, initial=0.0)))
    n_targets = config.target_count
    angle_floor = 2 * np.pi * DC_GUARD_CYCLES / k_samples
    reps, found = select_signal_roots(roots, n_targets,
                                      config.unit_circle_tolerance,
                                      angle_floor)
    reps[root_failed] = np.nan
    freqs = frequencies_from_roots(reps, spacing)
    order = np.argsort(freqs, axis=-1)
    freqs = np.take_along_axis(freqs, order, axis=-1)
    reps = np.take_along_axis(reps, order, axis=-1)
    doas, clamped = doa_from_frequency(freqs, wavenumber, lo_angle)
    failed = root_failed | (found < n_targets)
    errors = [None] * n_rows
    for t in np.flatnonzero(failed):
        errors[t] = RootfindingFailure(
            f"root residual {root_residual[t]:.3e} above tolerance"
            if finite[t] else "prediction coefficients are not finite"
        ) if root_failed[t] else InsufficientSignalRoots(
            f"found {found[t]} usable root pairs, need {n_targets}")
    return BatchEstimate(
        spatial_frequencies=freqs, doas=doas, roots=reps,
        lpc_coefficients=coeffs, lpc_residual_norm=residual,
        clamped_flags=clamped, rank_deficient=rank_deficient,
        errors=tuple(errors), failed=failed)


def estimate_doa(measurement, scene_meta: tuple[float, float],
                 config: PronyConfig) -> EstimationResult:
    """Full Prony pipeline on one calibrated measurement vector: the batch
    pipeline on a single row.

    scene_meta carries (carrier wavenumber, LO angle). Deterministic for
    fixed inputs; cost is dominated by the O(p^2 K) least-squares solve.
    """
    if np.ndim(measurement.values) != 1:
        raise ValueError("estimate_doa takes one measurement vector; "
                         "use estimate_doa_batch for a stack")
    return estimate_doa_batch(measurement, scene_meta, config).result(0)
