"""Legendre polynomial evaluation and root finding.

Everything downstream (Hamiltonian spectrum, eigenvectors, metrics) is
generated by the Legendre three-term recurrence, so this module keeps the
primitives small and heavily cross-checked: roots are found by bracketed
Newton iteration and independently validated against the eigenvalues of
the symmetrized Jacobi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

__all__ = [
    "RootSet",
    "eval_P",
    "eval_P_derivative",
    "eval_P_table",
    "jacobi_eigenvalues",
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


def eval_P(n: int, x: float) -> float:
    """Legendre polynomial P_n(x), upward three-term recurrence."""
    return float(eval_P_table(n, x)[n])


def eval_P_derivative(n: int, x: float) -> float:
    """dP_n/dx via (x^2 - 1) P_n' = n (x P_n - P_{n-1}).

    At x = +-1 the identity degenerates; the analytic limit is
    n (n + 1) / 2 * (+-1)^(n+1).
    """
    if n == 0:
        return 0.0
    if x == 1.0 or x == -1.0:
        return n * (n + 1) / 2 * x ** (n + 1)
    table = eval_P_table(n, x)
    return float(n * (x * table[n] - table[n - 1]) / (x * x - 1.0))


def jacobi_eigenvalues(N: int) -> np.ndarray:
    """Eigenvalues of the N x N symmetrized Jacobi matrix of the recurrence.

    Off-diagonal couplings are (k+1)/sqrt((2k+1)(2k+3)); the eigenvalues are
    exactly the roots of P_N (the Gauss-Legendre nodes).  Serves as the
    independent oracle for the Newton-based root finder and vice versa.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return np.zeros(1)
    k = np.arange(N - 1, dtype=float)
    beta = (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))
    return eigvalsh_tridiagonal(np.zeros(N), beta)


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


def roots_P(N: int) -> RootSet:
    """All N roots of P_N, built degree by degree from interlacing brackets.

    The result is symmetrized about 0 (the exact middle root of odd degrees
    is pinned to 0.0) and cross-validated against the Jacobi-matrix
    eigenvalues; disagreement beyond tolerance signals a logic error.
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
    oracle = jacobi_eigenvalues(N)
    disagreement = np.max(np.abs(roots - oracle))
    if disagreement > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"Newton roots and Jacobi eigenvalues disagree by {disagreement:.3e} "
            f"at N={N}"
        )
    return RootSet(N, roots)
