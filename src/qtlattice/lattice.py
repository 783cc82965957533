"""The truncated Legendre-recurrence Hamiltonian and its biorthogonal eigensystem.

The N-site Hamiltonian H is the upper-left N x N block of the infinite
recurrence matrix: zero diagonal, superdiagonal (n+1)/(2n+1), subdiagonal
(n+1)/(2n+3).  It is real and asymmetric, but intertwined with the diagonal
positive matrix Q = diag(n + 1/2) through H^T Q = Q H, which makes it
Hermitian in the Q-weighted inner product.  Eigenvectors are columns of
Legendre values (P_0(E), ..., P_{N-1}(E)) at the roots E of P_N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .legendre import RootSet, eval_P_table, roots_P

__all__ = [
    "LatticeHamiltonian",
    "DiagonalMetric",
    "BiorthogonalSystem",
    "build_hamiltonian",
    "build_metric_Q",
    "spectrum",
    "ket",
    "biorthogonal_system",
]

EIGEN_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Tridiagonal N x N lattice Hamiltonian with zero diagonal."""

    dimension: int
    superdiagonal: np.ndarray
    subdiagonal: np.ndarray

    def to_dense(self) -> np.ndarray:
        return np.diag(self.superdiagonal, 1) + np.diag(self.subdiagonal, -1)


@dataclass(frozen=True)
class DiagonalMetric:
    """Positive diagonal metric of the auxiliary space."""

    dimension: int
    entries: np.ndarray

    def to_dense(self) -> np.ndarray:
        return np.diag(self.entries)


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Eigenvalues, kets, ketkets (Q kets) and Q-norms of the lattice model.

    kets[:, j] has components (P_0(E_j), ..., P_{N-1}(E_j)); ketkets are
    Q kets; q_norms[j] = kets[:, j]^T Q kets[:, j].  Together they resolve
    the identity: sum_j kets_j (1/q_norms_j) kets_j^T Q = I.
    """

    dimension: int
    eigenvalues: RootSet
    kets: np.ndarray
    ketkets: np.ndarray
    q_norms: np.ndarray


def build_hamiltonian(N: int) -> LatticeHamiltonian:
    """N x N truncation of the Legendre recurrence matrix."""
    if N < 1:
        raise ValueError("N must be positive")
    n = np.arange(N - 1, dtype=float)
    return LatticeHamiltonian(
        dimension=N,
        superdiagonal=(n + 1) / (2 * n + 1),
        subdiagonal=(n + 1) / (2 * n + 3),
    )


def build_metric_Q(N: int) -> DiagonalMetric:
    """The diagonal intertwiner of H, normalized to Q_00 = 1/2.

    Defined as the unique positive diagonal solution of H^T Q = Q H: the
    ratio condition q_{n+1}/q_n = (2n+3)/(2n+1) gives q_n = n + 1/2.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return DiagonalMetric(N, np.arange(N) + 0.5)


def spectrum(H: LatticeHamiltonian) -> RootSet:
    """Eigenvalues of H: the roots of P_N, as returned by `roots_P`.

    H is the N x N truncation of the Legendre recurrence, so its
    characteristic polynomial is proportional to P_N.  `roots_P` certifies
    its Newton roots by Sturm counts on the Jacobi matrix (the symmetrized
    H), so no eigensolve is made here.
    """
    return roots_P(H.dimension)


def ket(N: int, E) -> np.ndarray:
    """The length-N Legendre column (P_0(E), ..., P_{N-1}(E)).

    For an array of energies, ket(N, E)[:, j] is the column of E[j].
    """
    if N < 1:
        raise ValueError("N must be positive")
    return eval_P_table(N - 1, E)


def biorthogonal_system(N: int) -> BiorthogonalSystem:
    """Assemble and validate the full biorthogonal eigensystem at size N.

    The kets come from one recurrence over all roots of P_N.  Gates: the eigen
    residual max|H kets - kets E| (from the two bands of H) is at most
    EIGEN_RESIDUAL_TOL, and kets^T Q kets is diagonal to 1e-12 of max q_norm.
    """
    H = build_hamiltonian(N)
    Q = build_metric_Q(N)
    eigenvalues = spectrum(H)
    kets = ket(N, eigenvalues.roots)
    ketkets = Q.entries[:, None] * kets
    q_norms = np.einsum("ij,ij->j", kets, ketkets)

    misfit = kets * eigenvalues.roots[None, :]  # kets E - H kets, band by band
    misfit[:-1] -= H.superdiagonal[:, None] * kets[1:]
    misfit[1:] -= H.subdiagonal[:, None] * kets[:-1]
    residual = np.max(np.abs(misfit))
    if residual > EIGEN_RESIDUAL_TOL:
        raise RuntimeError(f"eigenvector residual {residual:.3e} exceeds tolerance")
    gram = kets.T @ ketkets
    off = gram - np.diag(np.diag(gram))
    if np.max(np.abs(off)) > 1e-12 * np.max(q_norms):
        raise RuntimeError("biorthogonality violated")
    return BiorthogonalSystem(N, eigenvalues, kets, ketkets, q_norms)
