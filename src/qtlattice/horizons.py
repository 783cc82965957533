"""Positivity horizons of the tridiagonal metric slice and hidden horizons.

The tridiagonal metric Theta(alpha) = Q + alpha T stays positive-definite
only on a finite interval (-gamma, gamma): as `metrics` derives, T = 2 Q H,
so Theta(alpha) is positive-definite exactly while every 1 + 2 alpha E_j > 0.
The spectrum of H (the roots of P_N) is symmetric about 0, so
gamma = 1/(2 x_max), x_max the largest root of P_N, found by Newton's method
on the Legendre recurrence (`legendre._largest_root`).  The cross-check
shares no code with it: a bisection on one O(N) Sturm count of Theta(alpha)
per step (the LDL^T pivots), O(N log 1/eps) in all; the two must agree
tightly.  The bisection and the scan take the slice, its dense matrices and
its Sturm test from `metrics`.

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

The indefinite points are solved and diagonalized in stacks on a thread
pool, one worker per CPU the process may run on (`os.sched_getaffinity`,
else `os.cpu_count`): numpy's stacked `solve` and `eigvals` release the
GIL.  The stacks together hold at most 4 MB of Theta(alpha) matrices (or
one matrix, where one is larger), and a scan whose points fit in one stack
runs in the calling thread.  Every matrix gets the same LAPACK calls on the
same entries as alone, so the results are bitwise those of a point-by-point
loop.  A multithreaded BLAS adds its own threads inside each worker and may
oversubscribe the cores; with OPENBLAS_NUM_THREADS=1 there is one thread per
core.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._size import _as_real, _require_size
from .legendre import _largest_root
from .metrics import _as_symmetric, _none_below_threshold, _slice, _slice_matrix
from .metrics import tridiagonal_definiteness
from .tridiagonal import sturm_count

CROSS_CHECK_TOL = 1e-10
BISECTION_WIDTH = 1e-12
REALITY_THRESHOLD = 1e-8
SINGULAR_RCOND = 1e-12
# Bytes of Theta(alpha) matrices the scan holds in flight, over all its stacks.
_SCAN_CHUNK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class HorizonReport:
    """gamma at one N.  `bisection_iterations` is 40 at every N: the bracket [0, 1] is halved to
    1e-12 or less.  `cross_check_residual`, about 2e-12, is the shift by thr, not a disagreement."""

    dimension: int
    gamma: float
    cross_check_residual: float
    bisection_iterations: int


@dataclass(frozen=True, eq=False)
class RealityScan:
    """Largest imaginary eigenvalue part of a companion observable per alpha."""

    dimension: int
    alpha_grid: np.ndarray
    max_imag: np.ndarray
    definiteness: list[str]
    first_crossing: float | None
    skipped_singular: list[float]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _gamma_bisection(N: int) -> tuple[float, int]:
    """Bisection on the positive-definiteness of Theta(alpha).

    Each step runs the O(N) pivot recurrence once, at +thr: Theta(alpha) is
    positive-definite when no eigenvalue lies below it (`metrics`).
    """
    q, t = _slice(N, 1.0)
    iterations = 0
    lo, hi = 0.0, 1.0  # x_max grows with N, so gamma <= gamma(2) = sqrt(3)/2 < 1
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if _none_below_threshold(q, mid * t):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


def horizon_gamma(N: int) -> HorizonReport:
    """gamma = 1/(2 x_max) at size N, cross-checked by bisection on Theta(alpha)."""
    N = _require_size(N, 2)
    gamma = 0.5 / _largest_root(N)
    gamma_bis, iterations = _gamma_bisection(N)
    residual = abs(gamma - gamma_bis)
    if residual > CROSS_CHECK_TOL:
        raise RuntimeError(f"horizon methods disagree by {residual:.3e} at N={N}")
    return HorizonReport(
        dimension=N,
        gamma=gamma,
        cross_check_residual=residual,
        bisection_iterations=iterations,
    )


def hidden_horizon_scan(N: int, K: np.ndarray, alpha_grid: np.ndarray) -> RealityScan:
    """Scan the spectrum of Lambda(alpha) = Theta(alpha)^{-1} K for reality loss.

    Lambda(alpha) satisfies the intertwining condition with Theta(alpha) by
    construction for every alpha; the first grid point where a complex
    eigenvalue appears is the observable's hidden horizon.

    Labels and the singular skip come from Sturm counts over the whole grid.
    A point is skipped (max_imag NaN) when Theta(alpha) has an eigenvalue in
    [-tau, tau], tau = 1e-12 (max q + |alpha| max_n (t_{n-1} + t_n)).  tau
    bounds 1e-12 ||Theta||_inf >= 1e-12 ||Theta||_2 from above, so every
    point with reciprocal condition number below 1e-12 is skipped, and
    tau >= thr = 1e-12 max|Theta| of the labels (max q >= max|diag Theta| and
    |alpha| max_n (t_{n-1} + t_n) >= max|alpha t|), so every singular point is
    too; a point labelled positive-definite with an eigenvalue in (thr, tau]
    is skipped as well.

    A crossing is max_imag > 1e-8 max|K|, with no floor: Lambda(alpha) scales
    with K, so c K crosses where K does for every c > 0; a zero K scans real.

    Only the indefinite points that are not skipped are solved and
    diagonalized, with the same LAPACK calls on the same Theta(alpha) entries
    as one point at a time, so the outputs do not depend on the stacking.
    With w = min(CPUs the process may run on, 4 MB / (8 N^2)) workers, the
    points are split evenly into stacks of at most 4 MB / (w 8 N^2)
    matrices each, their number rounded up to a multiple of w but not above
    the number of points, and a pool of w threads runs them; points that
    fit in one stack run inline, without a pool.  Each stack writes
    its own entries of max_imag, and an exception in one is raised here.
    A multithreaded BLAS may oversubscribe the cores.  The positive-definite
    ones get max_imag = 0 exactly, without an eigensolve: with Theta > 0,
    Lambda is similar to the symmetric Theta^{-1/2} K Theta^{-1/2}, so its
    spectrum is real.  The label is exact here: it means no eigenvalue below
    thr = 1e-12 max|Theta| by a count that errs by at most about
    1.1e-15 max|Theta| (see `metrics`), so lambda_min(Theta) > 0.
    """
    N = _require_size(N, 2)
    K = _as_symmetric(K, "K")
    alpha_grid = _as_real(alpha_grid, "the alpha grid", 1)
    if K.shape != (N, N):
        raise ValueError("K has wrong shape")
    q, t = _slice(N, 1.0)
    offdiagonal = _slice(N, alpha_grid)[1]
    definiteness = tridiagonal_definiteness(q, offdiagonal)
    row_couplings = np.max(np.r_[t, 0.0] + np.r_[0.0, t])
    with np.errstate(over="ignore"):  # an infinite tau makes sturm_count raise ValueError
        tau = SINGULAR_RCOND * (np.max(q) + np.abs(alpha_grid) * row_couplings)
    skip = sturm_count(q, offdiagonal, tau) > sturm_count(q, offdiagonal, -tau)
    positive = definiteness == "positive-definite"
    max_imag = np.where(positive & ~skip, 0.0, np.nan)
    solved = np.flatnonzero(~positive & ~skip)

    def solve_stack(points):
        thetas = _slice_matrix(q, offdiagonal[:, points])
        eigenvalues = np.linalg.eigvals(np.linalg.solve(thetas, K))
        max_imag[points] = np.max(np.abs(eigenvalues.imag), axis=-1)

    matrix_bytes = 8 * N * N
    workers = min(_usable_cpus(), max(1, _SCAN_CHUNK_BYTES // matrix_bytes))
    stack = max(1, _SCAN_CHUNK_BYTES // (matrix_bytes * workers))
    stacks = -(-len(solved) // stack)
    if stacks == 1:
        solve_stack(solved)
    elif stacks > 1:
        from concurrent.futures import ThreadPoolExecutor

        stacks = min(len(solved), -(-stacks // workers) * workers)
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(solve_stack, np.array_split(solved, stacks)))
    crossings = np.flatnonzero(max_imag > REALITY_THRESHOLD * np.max(np.abs(K)))
    return RealityScan(
        dimension=N,
        alpha_grid=alpha_grid,
        max_imag=max_imag,
        definiteness=definiteness.tolist(),
        first_crossing=float(alpha_grid[crossings[0]]) if len(crossings) else None,
        skipped_singular=alpha_grid[skip].tolist(),
    )
