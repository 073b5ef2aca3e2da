"""Prony spectral estimation: linear prediction on the channel samples,
characteristic-polynomial rooting, signal-root selection, and the inverse
map from spatial frequency to bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InsufficientSamples,
    InsufficientSignalRoots,
    RootfindingFailure,
    read_only_copy,
)

# Roots within this |arg z| band of DC are calibration-residual leakage,
# not resolvable signal frequencies; the guard scales as 2*pi/(4K).
DC_GUARD_CYCLES = 0.25

ROOT_RESIDUAL_TOL = 1e-8
CLAMP_TOL = 1e-6

# Failure codes of an estimate row (EstimationResult.failure).
OK, NOT_FINITE, ROOT_RESIDUAL, TOO_FEW_ROOTS = np.arange(4, dtype=np.int8)


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
    """Prony estimates of one measurement vector, or of a stack of T with a
    leading axis of T rows on every field.

    The per-target fields hold the config's target_count N columns:
    representative roots (one per conjugate pair, positive angle), their
    spatial frequencies and bearings. A failed row holds NaN there (clamped
    flags False), so an RMSE over the successful rows scores all N targets.
    failure holds each row's code: OK, NOT_FINITE (prediction coefficients
    overflowed), ROOT_RESIDUAL (root_residual above the gate) or
    TOO_FEW_ROOTS (usable_pairs below N).
    """

    spatial_frequencies: np.ndarray
    doas: np.ndarray
    roots: np.ndarray
    lpc_coefficients: np.ndarray
    lpc_residual_norm: np.ndarray
    clamped_flags: np.ndarray
    rank_deficient: np.ndarray
    root_residual: np.ndarray
    usable_pairs: np.ndarray
    failure: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name,
                               read_only_copy(getattr(self, field.name)))
        if self.spatial_frequencies.shape != self.doas.shape:
            raise ValueError("frequency and DoA counts must agree")

    @property
    def failed(self) -> np.ndarray:
        return self.failure != OK

    def row(self, t: int) -> EstimationResult:
        """Row t of a stack as one estimate; raises the row's failure."""
        code = self.failure[t]
        if code == NOT_FINITE:
            raise RootfindingFailure("prediction coefficients are not finite")
        if code == ROOT_RESIDUAL:
            raise RootfindingFailure(
                f"root residual {self.root_residual[t]:.3e} above tolerance")
        if code == TOO_FEW_ROOTS:
            raise InsufficientSignalRoots(
                f"found {self.usable_pairs[t]} usable root pairs, "
                f"need {self.doas.shape[-1]}")
        return EstimationResult(*(getattr(self, field.name)[t]
                                  for field in fields(self)))


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


def _svd_lpc(matrix: np.ndarray, rhs: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares via SVD, minimum-norm when a system is rank deficient,
    with the default cutoff of np.linalg.lstsq: singular values at or below
    eps * max(rows, p) times the largest are dropped."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    rows, order = matrix.shape[-2:]
    kept = s > np.finfo(float).eps * max(rows, order) * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    proj = (np.swapaxes(u, -1, -2) @ rhs[..., None])[..., 0]
    coeffs = (np.swapaxes(vh, -1, -2) @ (inv * proj)[..., None])[..., 0]
    residual = np.linalg.norm((matrix @ coeffs[..., None])[..., 0] - rhs,
                              axis=-1)
    return coeffs, residual, kept.sum(axis=-1) < order


def solve_lpc(matrix: np.ndarray, rhs: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares prediction coefficients per stacked system, by
    modified Gram-Schmidt on [A | b] over the whole stack (Bjorck, BIT 7,
    1967): R and Q^T b come out of its projections, and the residual is the
    last column left. A system is certified full rank when sigma_min(R) >=
    |det R| ((p-1) / |R|_F^2)^((p-1)/2) exceeds 1e3 eps max(rows, p) |R|_F
    and no pivot's square is below tiny / eps, where underflow eats digits;
    every other system takes the SVD rule (_svd_lpc), so rank_deficient and
    the minimum-norm solution are the SVD's wherever a system could be
    deficient. Returns (a, residual_norm, rank_deficient) with the leading
    axes of matrix."""
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.size == 0:
        raise InsufficientSamples("empty prediction system")
    lead, (rows, order) = matrix.shape[:-2], matrix.shape[-2:]
    matrix, rhs = matrix.reshape(-1, rows, order), rhs.reshape(-1, rows)
    # Column j of every [A | b] in one C-ordered (p+1, T, rows) buffer: sums
    # run along contiguous rows in one order whatever the stack size or the
    # input's layout, and every other step is elementwise.
    cols = np.empty((order + 1, len(matrix), rows))
    cols[:order], cols[order] = matrix.transpose(2, 0, 1), rhs
    tri = np.zeros((order, order + 1, len(matrix)))  # [R | Q^T b]
    with np.errstate(all="ignore"):
        for k in range(order):
            tri[k, k] = np.sqrt(np.add.reduce(cols[k] ** 2, axis=-1))
            unit = cols[k] / tri[k, k, :, None]
            tri[k, k + 1:] = np.add.reduce(unit * cols[k + 1:], axis=-1)
            cols[k + 1:] -= tri[k, k + 1:, :, None] * unit
        coeffs = tri[:, order].copy()
        for k in range(order - 1, -1, -1):
            coeffs[k] /= tri[k, k]
            coeffs[:k] -= tri[:k, k] * coeffs[k]
        residual = np.sqrt(np.add.reduce(cols[order] ** 2, axis=-1))
        # The bound divided through by |R|_F, so that it cannot overflow;
        # accumulate runs along p in one order at any stack size.
        frob = np.sqrt(np.add.accumulate(
            (tri[:, :order] ** 2).reshape(order * order, -1))[-1])
        diag = tri[np.arange(order), np.arange(order)]
        bound = np.multiply.accumulate(diag / frob)[-1]
        # A pivot squared near the subnormal range has lost digits.
        tiny = np.finfo(float).tiny / np.finfo(float).eps
        redo = ~(bound * (order - 1) ** ((order - 1) / 2)
                 > 1e3 * np.finfo(float).eps * max(rows, order)) \
            | (diag.min(axis=0) ** 2 < tiny)
    coeffs, deficient = coeffs.T.copy(), np.zeros(len(matrix), dtype=bool)
    if redo.any():
        coeffs[redo], residual[redo], deficient[redo] = _svd_lpc(
            matrix[redo], rhs[redo])
    return (coeffs.reshape(lead + (order,)), residual.reshape(lead),
            deficient.reshape(lead))


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of each polynomial's companion matrix."""
    order = coeffs.shape[-1]
    companion = np.zeros(coeffs.shape + (order,))
    companion[..., 0, :] = -coeffs
    companion[..., np.arange(1, order), np.arange(order - 1)] = 1.0
    return np.linalg.eigvals(companion).astype(complex)


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Roots of z^2 + b z + c by the stable formula, elementwise, along a
    new leading axis of 2."""
    disc = b * b - 4.0 * c
    root, half_b, real = np.sqrt(np.abs(disc)), -0.5 * b, disc >= 0
    q = half_b - 0.5 * np.copysign(root, b)
    out = np.empty((2,) + b.shape, dtype=complex)
    out.real[0] = np.where(real, q, half_b)
    out.real[1] = np.where(real, c / q, half_b)
    out.imag[0] = np.where(real, 0.0, 0.5 * root)
    out.imag[1] = -out.imag[0]
    return out


def _closed_form_roots(lanes: np.ndarray) -> np.ndarray:
    """Roots (p, T) of the monic polynomials with coefficients lanes (p, T)
    for p in (2, 4): the quadratic formula, or Ferrari's method polished by
    two Newton steps."""
    if len(lanes) == 2:
        return _quadratic_roots(*lanes)
    # z = y - shift gives the depressed quartic y^4 + p y^2 + q y + r.
    shift, (b, c, d) = lanes[0] * 0.25, lanes[1:]
    shift2 = shift * shift
    p = b - 6 * shift2
    q = c - 2 * shift * (b - 4 * shift2)
    r = d - shift * (c - shift * (b - 3 * shift2))
    # Largest root m of the resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8:
    # m = t - p/3 for the largest root t of t^3 + 3 g t + 2 h, by Cardano's
    # formula where that cubic has one real root, else the cosine formula.
    p3 = p / 3
    g = -0.25 * p3 * p3 - r / 3
    h = 0.5 * p3 * (r - 0.25 * p3 * p3) - 0.0625 * q * q
    disc = h * h + g * g * g
    u = np.cbrt(-h - np.copysign(np.sqrt(np.maximum(disc, 0.0)), h))
    rho = np.sqrt(-g)
    m = np.where(disc > 0, u - g / u, 2 * rho * np.cos(np.arccos(np.clip(
        -h / (rho * rho * rho), -1.0, 1.0)) / 3)) - p3
    # y^4 + p y^2 + q y + r = (y^2 + p/2 + m)^2 - (s y - q / (2 s))^2.
    s = np.sqrt(2 * m) * np.array([[-1.0], [1.0]])
    z = _quadratic_roots(s, 0.5 * (p - q / s) + m).reshape(4, -1) - shift
    for _ in range(2):
        # Horner's rule for P(z) and P'(z) together.
        val, der = z + lanes[0], 1.0
        for coeff in lanes[1:]:
            der = der * z + val
            val = val * z + coeff
        z = z - val / der
    return z


def char_poly_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of z^p + a_1 z^(p-1) + ... + a_p; leading axes of coeffs stack
    independent polynomials. Orders 2 and 4 are rooted in closed form
    over the whole stack, certified when the polynomial rebuilt from the
    roots (Vieta) is within 1e-13 max(1, |a_j|) of every a_j; every other
    polynomial and order takes the companion eigenvalues, which are
    backward stable. Roots are used as computed. Returns (roots, residual):
    each polynomial's worst |P(z)| / (1 + |z|^p), for the caller's gate."""
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("prediction coefficients must be finite")
    order = coeffs.shape[-1]
    flat = coeffs.reshape(int(np.prod(coeffs.shape[:-1])), order)
    # Polynomial t in lane t, so every step runs along contiguous lanes.
    lanes = np.ascontiguousarray(flat.T)
    if order in (2, 4):
        with np.errstate(all="ignore"):
            roots = _closed_form_roots(lanes)
            rebuilt = np.zeros((order + 1, len(flat)), dtype=complex)
            rebuilt[0] = 1.0
            for j in range(order):
                rebuilt[1:j + 2] -= roots[j] * rebuilt[:j + 1]
            redo = ~np.all(np.abs(rebuilt[1:] - lanes)
                           <= 1e-13 * np.maximum(1.0, np.abs(lanes)), axis=0)
        if redo.any():
            roots[:, redo] = _companion_roots(flat[redo]).T
    else:
        roots = _companion_roots(flat).T
    monic = np.concatenate((np.ones((1, len(flat))), lanes))
    residual = (np.abs(np.polyval(monic, roots))
                / (1.0 + np.abs(roots) ** order))
    return (np.ascontiguousarray(roots.T).reshape(coeffs.shape),
            residual.max(axis=0, initial=0.0).reshape(coeffs.shape[:-1]))


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


def estimate_doa_batch(measurements, scene_meta: tuple[float, float],
                       config: PronyConfig) -> EstimationResult:
    """Full Prony pipeline on a stack of calibrated measurement vectors.

    measurements.values is (T, K), or (K,) for a stack of one. Each stage
    runs once over the whole stack, and row t equals the pipeline on row t
    alone. A row whose prediction coefficients are not finite, whose roots
    fail the residual check or that has too few signal roots records its
    failure code instead of raising.
    """
    wavenumber, lo_angle = scene_meta
    values = np.atleast_2d(measurements.values)
    spacing = measurements.geometry.spacing
    k_samples = values.shape[-1]
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
    # The first failure of the pipeline names the row's code.
    failure = np.where(found < n_targets, TOO_FEW_ROOTS, OK)
    failure[root_failed] = ROOT_RESIDUAL
    failure[~finite] = NOT_FINITE
    return EstimationResult(
        spatial_frequencies=freqs, doas=doas, roots=reps,
        lpc_coefficients=coeffs, lpc_residual_norm=residual,
        clamped_flags=clamped, rank_deficient=rank_deficient,
        root_residual=root_residual, usable_pairs=found, failure=failure)


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
    return estimate_doa_batch(measurement, scene_meta, config).row(0)
