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

FIXED_ORDER = "fixed"
SV_THRESHOLD = "singular_value_threshold"

# Roots within this |arg z| band of DC are calibration-residual leakage,
# not resolvable signal frequencies; the guard scales as 2*pi/(4K).
DC_GUARD_CYCLES = 0.25

ROOT_RESIDUAL_TOL = 1e-8
CLAMP_TOL = 1e-6


@dataclass(frozen=True)
class PronyConfig:
    """Model order and root-selection settings.

    model_order p must satisfy 2N <= p < K. target_count may be an integer
    or None for singular-value-based order selection.
    """

    model_order: int
    target_count: int | None = None
    unit_circle_tolerance: float = 0.2
    order_selection: str = FIXED_ORDER
    sv_threshold: float = 1e-3

    def __post_init__(self):
        if self.model_order < 1:
            raise ValueError("model_order must be at least 1")
        if not 0 < self.unit_circle_tolerance < 1:
            raise ValueError("unit_circle_tolerance must lie in (0, 1)")
        if self.order_selection not in (FIXED_ORDER, SV_THRESHOLD):
            raise ValueError("unknown order_selection mode")
        if self.order_selection == FIXED_ORDER:
            if self.target_count is None:
                raise ValueError("fixed order selection needs target_count")
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
    """Roots of z^p + a_1 z^(p-1) + ... + a_p via companion eigenvalues,
    polished with two Newton steps; leading axes of coeffs stack
    independent polynomials.

    Returns (roots, residual): residual is each polynomial's worst
    |P(z)| / (1 + |z|^p) over its polished roots.
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
    deriv = monic[..., :-1] * np.arange(order, 0, -1)
    with np.errstate(all="ignore"):
        for _ in range(2):
            value = _polyval(monic, roots)
            dp = _polyval(deriv, roots)
            step = np.where(dp != 0, value / np.where(dp == 0, 1.0, dp),
                            0.0)
            refined = roots - step
            keep = np.isfinite(refined) & (
                np.abs(_polyval(monic, refined)) <= np.abs(value))
            roots = np.where(keep, refined, roots)
    residual = np.abs(_polyval(monic, roots)) / (1.0 + np.abs(roots) ** order)
    return roots, residual.max(axis=-1, initial=0.0)


def select_signal_roots(roots: np.ndarray, n_targets: int, delta: float,
                        angle_floor: float = 0.0) -> np.ndarray:
    """Pick one representative per conjugate pair for the N signal roots.

    Roots are ranked by distance from the unit circle; the DC guard
    rejects |arg z| below angle_floor. Ties on circle distance prefer the
    candidate farthest in angle from those already chosen.
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
        raise InsufficientSignalRoots(
            f"found {len(candidates)} usable root pairs, need {n_targets}")
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
    reps = np.array(chosen)
    return np.where(reps.imag < 0, reps.conj(), reps)


def _select_rows(roots: np.ndarray, n_targets: np.ndarray, delta: float,
                 angle_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """select_signal_roots over a (T, p) stack of root sets, row t taking
    n_targets[t] representatives.

    Without ties the greedy rule takes candidates in order of circle
    distance, which one stable sort gives for every row; rows whose
    candidate distances tie within 1e-12 take the serial rule. Returns
    (representatives, usable candidate counts): representatives has
    max(n_targets) columns, NaN beyond a row's count and on rows with
    fewer candidates than targets.
    """
    is_rep = (roots.imag > 0) | ((roots.imag == 0) & (roots.real < 0))
    dist = np.abs(np.abs(roots) - 1.0)
    usable = is_rep & (np.abs(np.angle(roots)) >= angle_floor) \
        & (dist <= delta)
    dist = np.where(usable, dist, np.inf)
    ranked_idx = np.argsort(dist, axis=-1, kind="stable")
    ranked = np.take_along_axis(dist, ranked_idx, axis=-1)
    found = usable.sum(axis=-1)
    width = int(n_targets.max(initial=0))
    reps = np.take_along_axis(roots, ranked_idx[:, :width], axis=-1)
    reps[(np.arange(width) >= n_targets[:, None])
         | (found < n_targets)[:, None]] = np.nan
    tied = (np.isfinite(ranked[:, 1:])
            & (ranked[:, 1:] <= ranked[:, :-1] + 1e-12)).any(axis=-1)
    for t in np.flatnonzero(tied & (found >= n_targets)):
        reps[t, :n_targets[t]] = select_signal_roots(
            roots[t], n_targets[t], delta, angle_floor)
    return reps, found


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


def estimate_target_count(matrix: np.ndarray, threshold: float
                          ) -> np.ndarray:
    """Half the count of Hankel singular values above threshold * largest
    (each real sinusoid contributes a rank-2 pair), per stacked matrix;
    zero for an all-zero matrix."""
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    significant = (sv > threshold * sv[..., :1]).sum(axis=-1)
    return np.where(sv[..., 0] == 0, 0,
                    np.maximum(1, np.round(significant / 2))).astype(int)


@dataclass(frozen=True)
class BatchEstimate:
    """Prony results for a stack of T measurement vectors, row by row.

    Arrays have T rows. Columns beyond a row's target count, and every
    column of a failed row, hold NaN (clamped flags hold False). errors[t]
    is the exception row t raised, or None when it succeeded.
    """

    spatial_frequencies: np.ndarray
    doas: np.ndarray
    roots: np.ndarray
    lpc_coefficients: np.ndarray
    lpc_residual_norm: np.ndarray
    clamped_flags: np.ndarray
    rank_deficient: np.ndarray
    target_counts: np.ndarray
    errors: tuple

    @property
    def failed(self) -> np.ndarray:
        return np.array([e is not None for e in self.errors], dtype=bool)

    def result(self, row: int) -> EstimationResult:
        """Row as an EstimationResult; raises the row's failure."""
        if self.errors[row] is not None:
            raise self.errors[row]
        n = self.target_counts[row]
        return EstimationResult(
            spatial_frequencies=self.spatial_frequencies[row, :n],
            doas=self.doas[row, :n], roots=self.roots[row, :n],
            lpc_coefficients=self.lpc_coefficients[row],
            lpc_residual_norm=float(self.lpc_residual_norm[row]),
            clamped_flags=self.clamped_flags[row, :n],
            rank_deficient=bool(self.rank_deficient[row]))


def estimate_doa_batch(measurements, scene_meta: tuple[float, float],
                       config: PronyConfig) -> BatchEstimate:
    """Full Prony pipeline on a stack of calibrated measurement vectors.

    measurements.values is (T, K), or (K,) for one vector. Each stage runs
    once over the whole stack, and row t equals the pipeline on row t
    alone. A row whose roots fail the residual check or that has too few
    signal roots records its exception instead of raising.
    """
    wavenumber, lo_angle = scene_meta
    values = np.atleast_2d(measurements.values)
    spacing = measurements.geometry.spacing
    n_rows, k_samples = values.shape
    if k_samples <= config.model_order:
        raise InsufficientSamples(
            f"K={k_samples} samples cannot support order p={config.model_order}")
    matrix, rhs = build_hankel(values, config.model_order)
    coeffs, residual, rank_deficient = solve_lpc(matrix, rhs)
    roots, root_residual = char_poly_roots(coeffs)
    root_failed = root_residual > ROOT_RESIDUAL_TOL * np.maximum(
        1.0, np.abs(coeffs).max(axis=-1, initial=0.0))
    if config.order_selection == SV_THRESHOLD:
        n_targets = estimate_target_count(matrix, config.sv_threshold)
    else:
        n_targets = np.full(n_rows, config.target_count)
    angle_floor = 2 * np.pi * DC_GUARD_CYCLES / k_samples
    reps, found = _select_rows(roots, n_targets,
                               config.unit_circle_tolerance, angle_floor)
    reps[root_failed] = np.nan
    freqs = frequencies_from_roots(reps, spacing)
    order = np.argsort(freqs, axis=-1)
    freqs = np.take_along_axis(freqs, order, axis=-1)
    reps = np.take_along_axis(reps, order, axis=-1)
    doas, clamped = doa_from_frequency(freqs, wavenumber, lo_angle)
    errors = tuple(
        RootfindingFailure(
            f"root residual {root_residual[t]:.3e} above tolerance")
        if root_failed[t] else
        InsufficientSignalRoots(
            f"found {found[t]} usable root pairs, need {n_targets[t]}")
        if found[t] < n_targets[t] else None
        for t in range(n_rows))
    return BatchEstimate(
        spatial_frequencies=freqs, doas=doas, roots=reps,
        lpc_coefficients=coeffs, lpc_residual_norm=residual,
        clamped_flags=clamped, rank_deficient=rank_deficient,
        target_counts=n_targets, errors=errors)


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
