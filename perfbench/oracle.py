"""Independent oracles and error models for checking qtlattice outputs.

Nothing here imports qtlattice: every reference is rebuilt from the model's
defining formulas with plain numpy and scipy, so a defect shared by two
program paths cannot hide from the check.

Error models.  Each tolerance scales with the size N and with the norm of
the quantity it bounds, and at N <= 64 it is at least as strict as the
program's own gate on the same quantity.  EPS is the double-precision unit
roundoff.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import eigvals
from scipy.special import eval_legendre, roots_legendre

EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------- references


def legendre_roots(N: int) -> np.ndarray:
    """Gauss-Legendre nodes from scipy, ascending."""
    return np.sort(roots_legendre(N)[0])


def hamiltonian(N: int) -> np.ndarray:
    """Dense H: superdiagonal (n+1)/(2n+1), subdiagonal (n+1)/(2n+3)."""
    n = np.arange(N - 1, dtype=float)
    return np.diag((n + 1) / (2 * n + 1), 1) + np.diag((n + 1) / (2 * n + 3), -1)


def metric_q(N: int) -> np.ndarray:
    """Diagonal entries n + 1/2 of the intertwiner Q."""
    return np.arange(N, dtype=float) + 0.5


def kets(N: int, energies: np.ndarray) -> np.ndarray:
    """Columns (P_0(E), ..., P_{N-1}(E)) from scipy's Legendre evaluation."""
    return eval_legendre(np.arange(N)[:, None], np.asarray(energies)[None, :])


def coupling_matrix(N: int) -> np.ndarray:
    """T with couplings t_n = n + 1 on both off-diagonals."""
    t = np.arange(1, N, dtype=float)
    return np.diag(t, 1) + np.diag(t, -1)


def tridiagonal_theta(N: int, alpha: float) -> np.ndarray:
    return np.diag(metric_q(N)) + alpha * coupling_matrix(N)


def gamma(N: int) -> float:
    """1 / spectral radius of the dense Q^{-1/2} T Q^{-1/2}."""
    s = 1.0 / np.sqrt(metric_q(N))
    return 1.0 / np.max(np.abs(np.linalg.eigvalsh(s[:, None] * coupling_matrix(N) * s[None, :])))


def kappa_theta(N: int, kappa: np.ndarray) -> np.ndarray:
    """Theta = sum_j kappa_j (Q psi_j)(Q psi_j)^T from the reference eigensystem."""
    ketkets = metric_q(N)[:, None] * kets(N, legendre_roots(N))
    return (ketkets * kappa[None, :]) @ ketkets.T


def exceptional_weights(N: int) -> np.ndarray:
    """kappa_j = 1/n_j, the weights that collapse Theta onto Q.

    By the Christoffel-Darboux identity n_j = sum_c (c + 1/2) P_c(E_j)^2 is
    the reciprocal of the j-th Gauss-Legendre weight.
    """
    nodes, weights = roots_legendre(N)
    return weights[np.argsort(nodes)]


@functools.lru_cache(maxsize=8)
def _symmetric_eigensystem(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r = np.sqrt(metric_q(N))
    h = r[:, None] * hamiltonian(N) / r[None, :]
    w, v = np.linalg.eigh(0.5 * (h + h.T))
    return r, w, v


def propagator(N: int, t: float) -> np.ndarray:
    """exp(-iHt) through the symmetric similarity h = Q^{1/2} H Q^{-1/2}."""
    r, w, v = _symmetric_eigensystem(N)
    u = (v * np.exp(-1j * w * t)[None, :]) @ v.T
    return u / r[:, None] * r[None, :]


def reality_max_imag(N: int, K: np.ndarray, alpha: float) -> float:
    """Largest |Im| eigenvalue of Theta(alpha)^{-1} K, through scipy's eig."""
    values = eigvals(K, tridiagonal_theta(N, alpha))
    return float(np.max(np.abs(values[np.isfinite(values)].imag)))


def smallest_eigenvalue(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


# ---------------------------------------------------------------- tolerances
#
# root_tol: a backward-stable symmetric eigensolve with ||J|| <= 1 moves each
#   root by O(N eps); 64 N eps is 9.1e-13 at N = 64, under the program's
#   1e-12 root cross-check.
# eig_residual_tol: the residual of a Legendre column sits in its last row,
#   |P_N(E + dE)| ~ |P_N'(E)| |dE| ~ N^2 eps, relative to max|K| ||H||; N^2
#   eps is 9.1e-13 at N = 64, under the program's absolute 1e-12.
# identity_tol: a sum of N rank-one terms of unit size, 64 N eps.
# matrix_tol: a matrix product accumulating N terms, 64 N eps relative to
#   the largest entry; 5.8e-13 at N = 64 against the program's 1e-12 /
#   1e-11 gates on the same matrices.
# kappa_tol: the quadratic form psi^T Theta psi / n^2 divides two O(N eps)
#   quantities; 1e-10 at N <= 64 as the program's own round-trip gate.
# drift_tol: a phase twist and two quadratic forms per step, 1e-10 at
#   N <= 64 as the program's own norm-conservation gate.
# gamma_tol: the extreme eigenvalue of a symmetric matrix with ||S|| ~ 2,
#   64 N eps; 9.1e-13 at N = 64 against the program's 1e-10 cross-check.


def _grow(N: int) -> float:
    return max(1.0, N / 64.0)


def root_tol(N: int) -> float:
    return 64 * N * EPS


def eig_residual_tol(N: int) -> float:
    return N * N * EPS


def identity_tol(N: int) -> float:
    return 64 * N * EPS


def matrix_tol(N: int) -> float:
    return 64 * N * EPS


def kappa_tol(N: int) -> float:
    return 1e-10 * _grow(N)


def drift_tol(N: int) -> float:
    return 1e-10 * _grow(N)


def gamma_tol(N: int) -> float:
    return 64 * N * EPS


def max_rel(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| relative to max|b| (at least 1)."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))
