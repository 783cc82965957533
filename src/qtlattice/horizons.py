"""Positivity horizons of the tridiagonal metric slice and hidden horizons.

The tridiagonal metric Theta(alpha) = Q + alpha T stays positive-definite
only on a finite interval (-gamma, gamma).  As `metrics` derives, T = 2 Q H,
and J = Q^{1/2} H Q^{-1/2} is the symmetrized Jacobi matrix of the Legendre
recurrence (built in `legendre`), so Theta(alpha) = Q^{1/2} (I + 2 alpha J) Q^{1/2}
is congruent to I + 2 alpha J: positive-definite exactly while every
1 + 2 alpha E_j > 0, E_j the eigenvalues of J, which are the roots of P_N.
They are symmetric about 0, so gamma = 1/(2 x_max), x_max the largest root,
found by Newton's method on the Legendre recurrence (`legendre._largest_root`).
It is certified as the top root of P_N by the roots' one certificate
(`legendre._certify_roots`): two Sturm counts on J, which share no code with
Newton, put the largest eigenvalue of J within 1e-12 of x_max.

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
from .legendre import CROSS_CHECK_TOL, _certify_roots, _largest_root
from .metrics import _as_symmetric, _slice, _slice_matrix, tridiagonal_definiteness
from .tridiagonal import sturm_count

REALITY_THRESHOLD = 1e-8
SINGULAR_RCOND = 1e-12
# Bytes of Theta(alpha) matrices the scan holds in flight, over all its stacks.
_SCAN_CHUNK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class HorizonReport:
    """gamma at one N.  `cross_check_residual` is the bound 0.5 delta/(x_max (x_max - delta)) that
    the Sturm certificate proves on |gamma - 1/(2 lambda_max(J))|: 1.5e-12 at N = 2, 5e-13 as N
    grows.  `bisection_iterations` is 0: no bisection runs."""

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


def horizon_gamma(N: int) -> HorizonReport:
    """gamma = 1/(2 x_max) at size N, x_max certified as the top root of P_N by `_certify_roots`."""
    N = _require_size(N, 2)
    x, delta = _largest_root(N), CROSS_CHECK_TOL
    _certify_roots(np.array([x]), N)
    return HorizonReport(
        dimension=N,
        gamma=0.5 / x,
        cross_check_residual=0.5 * delta / (x * (x - delta)),
        bisection_iterations=0,
    )


def hidden_horizon_scan(N: int, K: np.ndarray, alpha_grid: np.ndarray) -> RealityScan:
    """Scan the spectrum of Lambda(alpha) = Theta(alpha)^{-1} K for reality loss.

    Lambda(alpha) satisfies the intertwining condition with Theta(alpha) by
    construction for every alpha; the first grid point where a complex
    eigenvalue appears is the observable's hidden horizon.

    Labels and the singular skip come from Sturm counts over the whole grid,
    each Theta(alpha) scaled by its own power of two: a point reads as alone.
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
    K, scale = _as_symmetric(K, "K")
    alpha_grid = _as_real(alpha_grid, "the alpha grid", 1)
    if K.shape != (N, N):
        raise ValueError("K has wrong shape")
    q, t = _slice(N, 1.0)
    offdiagonal = _slice(N, alpha_grid)[1]
    definiteness = tridiagonal_definiteness(q, offdiagonal)
    row_couplings = np.max(np.r_[t, 0.0] + np.r_[0.0, t])
    with np.errstate(over="ignore"):  # an infinite tau makes sturm_count raise ValueError
        tau = SINGULAR_RCOND * (np.max(q) + np.abs(alpha_grid) * row_couplings)
    skip = np.greater(*sturm_count(q, offdiagonal, np.multiply.outer((1.0, -1.0), tau)))
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
    crossings = np.flatnonzero(max_imag > REALITY_THRESHOLD * scale)
    return RealityScan(
        dimension=N,
        alpha_grid=alpha_grid,
        max_imag=max_imag,
        definiteness=definiteness.tolist(),
        first_crossing=float(alpha_grid[crossings[0]]) if len(crossings) else None,
        skipped_singular=alpha_grid[skip].tolist(),
    )
