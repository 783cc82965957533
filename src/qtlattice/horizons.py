"""Positivity horizons of the tridiagonal metric family and hidden horizons.

The tridiagonal metric Theta(alpha) = Q + alpha T stays positive-definite
only on a finite interval (-gamma, gamma).  gamma is found two independent
ways: spectrally (1/spectral-radius of Q^{-1/2} T Q^{-1/2}, one eigenvalue
of a tridiagonal matrix) and by bisecting on one O(N) Sturm count of
Theta(alpha) per step, O(N log 1/eps) in all; the two must agree tightly.

The bisection finds where the smallest eigenvalue of Theta(alpha) crosses
thr = 1e-12 max|Theta| (see `metrics`), not zero.  That moves its result
below gamma by thr / |d lambda_min / d alpha|: the cross-check residual is
about 2e-12 for every N from 2 to 4096, fifty times inside the tolerance
1e-10.

Beyond gamma the metric is inadmissible, and companion observables
Lambda(alpha) = Theta(alpha)^{-1} K lose spectral reality at their own,
generally larger, "hidden" horizon.  A reality scan diagonalizes Lambda only
where Theta(alpha) is indefinite: where the Sturm count labels it
positive-definite, Lambda is quasi-Hermitian and its spectrum is real, so
the largest imaginary part there is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import build_metric_Q
from .metrics import _require_symmetric, sturm_count, tridiagonal_family

__all__ = [
    "HorizonReport",
    "RealityScan",
    "horizon_gamma",
    "hidden_horizon_scan",
]

CROSS_CHECK_TOL = 1e-10
BISECTION_WIDTH = 1e-12
REALITY_THRESHOLD = 1e-8
SINGULAR_RCOND = 1e-12
# Bytes of Theta(alpha) matrices the scan solves and diagonalizes per stack.
_SCAN_CHUNK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class HorizonReport:
    """gamma for one lattice size, with the method cross-check."""

    dimension: int
    gamma: float
    method_primary: str
    method_check: str
    cross_check_residual: float
    bisection_iterations: int

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "gamma": self.gamma,
            "method_primary": self.method_primary,
            "method_check": self.method_check,
            "cross_check_residual": self.cross_check_residual,
            "bisection_iterations": self.bisection_iterations,
        }


@dataclass(frozen=True)
class RealityScan:
    """Largest imaginary eigenvalue part of a companion observable per alpha."""

    dimension: int
    observable_label: str
    alpha_grid: np.ndarray
    max_imag: np.ndarray
    definiteness: list[str]
    first_crossing: float | None
    skipped_singular: list[float] = field(default_factory=list)


def _gamma_spectral(N: int) -> float:
    """gamma = 1/rho(Q^{-1/2} T Q^{-1/2}).

    Theta(alpha) = Q^{1/2} (I + alpha S) Q^{1/2} with S symmetric
    tridiagonal; positivity is lost exactly when alpha * rho(S) reaches 1.
    S has a zero diagonal, so its spectrum is symmetric about zero and
    rho(S) is its largest eigenvalue, the only one computed.  scipy is
    imported here, not with the package, so that commands without a
    horizon do not load it.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    q = build_metric_Q(N).entries
    t = np.arange(1, N, dtype=float)
    couplings = t / np.sqrt(q[:-1] * q[1:])
    largest = eigvalsh_tridiagonal(np.zeros(N), couplings, select="i", select_range=(N - 1, N - 1))
    return 1.0 / largest[0]


def _gamma_bisection(N: int) -> tuple[float, int]:
    """Bisection on the positive-definiteness of Theta(alpha).

    Each step runs the O(N) pivot recurrence once, up to its first negative
    pivot; near gamma that is the last pivot, far above gamma an early one.
    """
    family = tridiagonal_family(N)
    iterations = 0
    lo, hi = 0.0, 1.0
    while family.positive_definite(hi):
        lo, hi = hi, 2.0 * hi
        iterations += 1
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if family.positive_definite(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


def horizon_gamma(N: int) -> HorizonReport:
    """Locate gamma at size N by both methods and cross-check them."""
    if N < 2:
        raise ValueError("N must be at least 2")
    gamma_eig = _gamma_spectral(N)
    gamma_bis, iterations = _gamma_bisection(N)
    residual = abs(gamma_eig - gamma_bis)
    if residual > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"horizon methods disagree by {residual:.3e} at N={N}"
        )
    return HorizonReport(
        dimension=N,
        gamma=gamma_eig,
        method_primary="generalized-eigenvalue",
        method_check="bisection",
        cross_check_residual=residual,
        bisection_iterations=iterations,
    )


def hidden_horizon_scan(
    N: int, K: np.ndarray, alpha_grid: np.ndarray, label: str = "theta-inverse-K"
) -> RealityScan:
    """Scan the spectrum of Lambda(alpha) = Theta(alpha)^{-1} K for reality loss.

    Lambda(alpha) satisfies the intertwining condition with Theta(alpha) by
    construction for every alpha; the first grid point where a complex
    eigenvalue appears is the observable's hidden horizon.

    Labels and the singular skip come from Sturm counts over the whole grid.
    A point is skipped (max_imag NaN) when Theta(alpha) has an eigenvalue in
    [-tau, tau], tau = 1e-12 (max q + |alpha| max_n (t_{n-1} + t_n)).  tau
    bounds 1e-12 ||Theta||_inf >= 1e-12 ||Theta||_2 from above, so every
    point with reciprocal condition number below 1e-12 is skipped, and
    tau >= thr of the labels (max q >= 1.5), so every singular point is too;
    a point labelled positive-definite with an eigenvalue in (thr, tau] is
    skipped as well.

    Only the indefinite points that are not skipped are solved and
    diagonalized, in stacks of about 4 MB, with the same LAPACK calls on the
    same Theta(alpha) entries as one point at a time.  The positive-definite
    ones get max_imag = 0 exactly, without an eigensolve: with Theta > 0,
    Lambda is similar to the symmetric Theta^{-1/2} K Theta^{-1/2}, so its
    spectrum is real.  The label is exact here: it means no eigenvalue below
    thr = 1e-12 max(1, max|Theta|) by a count that errs by at most about
    1.1e-15 max|Theta| (see `metrics`), so lambda_min(Theta) > 0.
    """
    K = np.asarray(K, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if not (np.all(np.isfinite(K)) and np.all(np.isfinite(alpha_grid))):
        raise ValueError("K and the alpha grid must be finite")
    if K.shape != (N, N):
        raise ValueError("K has wrong shape")
    _require_symmetric(K)
    scale = max(1.0, np.max(np.abs(K)))
    family = tridiagonal_family(N)
    definiteness = family.definiteness(alpha_grid)
    couplings = family.coupling_base
    row_couplings = np.max(np.r_[couplings, 0.0] + np.r_[0.0, couplings])
    tau = SINGULAR_RCOND * (np.max(family.diagonal) + np.abs(alpha_grid) * row_couplings)
    offdiagonal = family.offdiagonal(alpha_grid)
    skip = sturm_count(family.diagonal, offdiagonal, tau) > sturm_count(
        family.diagonal, offdiagonal, -tau
    )
    positive = definiteness == "positive-definite"
    max_imag = np.where(positive & ~skip, 0.0, np.nan)
    solved = np.flatnonzero(~positive & ~skip)
    diagonal, coupling = np.diag(family.diagonal), family.coupling_matrix()
    chunk = max(1, _SCAN_CHUNK_BYTES // (8 * N * N))
    for start in range(0, len(solved), chunk):
        points = solved[start : start + chunk]
        thetas = diagonal + alpha_grid[points, None, None] * coupling
        eigenvalues = np.linalg.eigvals(np.linalg.solve(thetas, K))
        max_imag[points] = np.max(np.abs(eigenvalues.imag), axis=-1)
    crossings = np.flatnonzero(max_imag > REALITY_THRESHOLD * scale)
    return RealityScan(
        dimension=N,
        observable_label=label,
        alpha_grid=alpha_grid,
        max_imag=max_imag,
        definiteness=definiteness.tolist(),
        first_crossing=float(alpha_grid[crossings[0]]) if len(crossings) else None,
        skipped_singular=alpha_grid[skip].tolist(),
    )
