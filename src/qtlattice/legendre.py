"""Legendre polynomial evaluation and root finding.

Everything downstream (Hamiltonian spectrum, eigenvectors, metrics) is
generated by the Legendre three-term recurrence, so this module keeps the
primitives small: roots are found by bracketed Newton iteration and
certified by Sturm counts on the symmetrized Jacobi matrix of the
recurrence, whose eigenvalues are exactly the roots.  The certificate uses
the LDL^T pivot kernel of `tridiagonal` and shares no code with Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tridiagonal import sturm_count

__all__ = [
    "RootSet",
    "eval_P_table",
    "roots_P",
]

ROOT_TOL = 1e-14
CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class RootSet:
    """All real roots of P_degree, sorted ascending."""

    degree: int
    roots: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if len(self.roots) != self.degree:
            raise ValueError("root count does not match degree")

    def to_json(self) -> list[float]:
        return [float(r) for r in self.roots]


def eval_P_table(degree_max: int, x) -> np.ndarray:
    """Values P_0(x), ..., P_degree_max(x) by upward recurrence.

    For an array `x`, row n holds P_n at every point, computed by the same
    operations as for a scalar, so batching the points leaves values unchanged.
    """
    if degree_max < 0:
        raise ValueError("degree_max must be nonnegative")
    x = np.asarray(x, dtype=float)
    values = np.empty((degree_max + 1,) + x.shape)
    values[0] = 1.0
    if degree_max >= 1:
        values[1] = x
    for n in range(1, degree_max):
        values[n + 1] = ((2 * n + 1) * x * values[n] - n * values[n - 1]) / (n + 1)
    return values


def _eval_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n, P_{n-1}) at an array of points, upward recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


def _derivative_from_pair(n: int, x, p, p_prev):
    return n * (x * p - p_prev) / (x * x - 1.0)


def _newton_in_brackets(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """All roots of P_n, one per bracket, Newton with bisection fallback."""
    flo, _ = _eval_pair(n, lo)
    x = 0.5 * (lo + hi)
    active = np.ones(len(x), dtype=bool)
    for _ in range(200):
        f, f_prev = _eval_pair(n, x)
        same_side = (f > 0) == (flo > 0)
        lo = np.where(active & same_side, x, lo)
        flo = np.where(active & same_side, f, flo)
        hi = np.where(active & ~same_side, x, hi)
        x_new = x - f / _derivative_from_pair(n, x, f, f_prev)
        out = (x_new <= lo) | (x_new >= hi)
        x_new = np.where(out, 0.5 * (lo + hi), x_new)
        converged = np.abs(x_new - x) <= ROOT_TOL
        x = np.where(active, x_new, x)
        active &= ~converged
        if not active.any():
            break
    else:
        raise RuntimeError(f"root iteration for P_{n} failed to converge")
    # two unguarded polish steps push the residual to evaluation noise
    for _ in range(2):
        f, f_prev = _eval_pair(n, x)
        x = x - f / _derivative_from_pair(n, x, f, f_prev)
    return x


# roots per degree, built once and reused; entries are immutable arrays
_root_cache: dict[int, np.ndarray] = {1: np.zeros(1)}
_root_cache[1].setflags(write=False)


def _certify_roots(roots: np.ndarray) -> None:
    """Raise unless the sorted roots match the Jacobi eigenvalues to CROSS_CHECK_TOL.

    The symmetrized Jacobi matrix J of the recurrence has a zero diagonal and
    couplings (k+1)/sqrt((2k+1)(2k+3)); its eigenvalues are exactly the roots
    of P_N.  One batched Sturm count on J at the 2N shifts x_j -/+ delta,
    delta = CROSS_CHECK_TOL, certifies root j (0-based) when
    count(x_j - delta) = j and count(x_j + delta) = j + 1: the j-th eigenvalue
    is within delta of x_j, and no other is.  The eigenvalues are separated
    by far more than 2 delta, so this is the sorted match
    max|roots - eig(J)| <= delta, up to the count's own error of about
    1.1e-15 max|J| < 1.1e-15 (see `tridiagonal.sturm_count`).
    """
    N = len(roots)
    k = np.arange(N - 1, dtype=float)
    couplings = (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))
    shifts = np.concatenate((roots - CROSS_CHECK_TOL, roots + CROSS_CHECK_TOL))
    below, through = np.split(sturm_count(np.zeros(N), couplings, shifts), 2)
    failed = np.flatnonzero((below != np.arange(N)) | (through != np.arange(1, N + 1)))
    if len(failed):
        j = failed[0]
        raise RuntimeError(
            f"Sturm certificate of the roots of P_{N} failed at root {j}: "
            f"{below[j]} Jacobi eigenvalues below x_{j} - {CROSS_CHECK_TOL:g} and "
            f"{through[j]} below x_{j} + {CROSS_CHECK_TOL:g}, expected {j} and {j + 1}"
        )


def roots_P(N: int) -> RootSet:
    """All N roots of P_N, built degree by degree from interlacing brackets.

    The result is symmetrized about 0 (the exact middle root of odd degrees
    is pinned to 0.0) and certified on every call by Sturm counts on the
    Jacobi matrix (`_certify_roots`); a failed certificate signals a logic
    error and raises RuntimeError.
    """
    if N < 1:
        raise ValueError("N must be positive")
    start = max(n for n in _root_cache if n <= N)
    roots = _root_cache[start]
    for n in range(start + 1, N + 1):
        brackets = np.concatenate(([-1.0], roots, [1.0]))
        roots = _newton_in_brackets(n, brackets[:-1], brackets[1:])
        roots = 0.5 * (roots - roots[::-1])
        if n % 2 == 1:
            roots[n // 2] = 0.0
        roots.setflags(write=False)
        _root_cache[n] = roots
    _certify_roots(roots)
    return RootSet(N, roots)
