"""The truncated Legendre-recurrence Hamiltonian and its biorthogonal eigensystem.

The N-site Hamiltonian H is the upper-left N x N block of the infinite
recurrence matrix: zero diagonal, superdiagonal (n+1)/(2n+1), subdiagonal
(n+1)/(2n+3).  It is real and asymmetric, but intertwined with the diagonal
positive matrix Q = diag(n + 1/2) through H^T Q = Q H, which makes it
Hermitian in the Q-weighted inner product.  Eigenvectors are columns of
Legendre values (P_0(E), ..., P_{N-1}(E)) at the roots E of P_N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._size import _require_size
from .legendre import RootSet, _legendre_values, roots_P

EIGEN_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Tridiagonal N x N lattice Hamiltonian with zero diagonal."""

    dimension: int
    superdiagonal: np.ndarray
    subdiagonal: np.ndarray


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
    N = _require_size(N)
    n = np.arange(N - 1, dtype=float)
    return LatticeHamiltonian(
        dimension=N,
        superdiagonal=(n + 1) / (2 * n + 1),
        subdiagonal=(n + 1) / (2 * n + 3),
    )


def build_metric_Q(N: int) -> np.ndarray:
    """The diagonal q of the intertwiner Q = diag(q) of H, normalized to q_0 = 1/2.

    Defined as the unique positive diagonal solution of H^T Q = Q H: the
    ratio condition q_{n+1}/q_n = (2n+3)/(2n+1) gives q_n = n + 1/2.
    """
    return np.arange(_require_size(N)) + 0.5


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

    For an array of energies, ket(N, E)[:, j] is the column of E[j].  A NaN or
    inf energy, or a column that overflows, is a ValueError.
    """
    N = _require_size(N)
    E = np.asarray(E)
    if E.dtype.kind not in "biuf":  # the check of metrics._as_real, which imports this module
        raise ValueError(f"E must be real numbers, not {E.dtype} input")
    E = E.astype(float, copy=False)
    kets = np.empty((N, *E.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # the gate below reads inf and NaN
        for n, values in zip(range(N), _legendre_values(E)):
            kets[n] = values
    if not (np.isfinite(E).all() and np.isfinite(kets).all()):
        raise ValueError(f"the length-{N} ket is not finite: NaN or inf energy, or overflow")
    return kets


def biorthogonal_system(N: int) -> BiorthogonalSystem:
    """Assemble and validate the full biorthogonal eigensystem at size N.

    The kets come from one recurrence over all roots of P_N.  Gates: the eigen
    residual max|H kets - kets E| (from the two bands of H) is at most
    EIGEN_RESIDUAL_TOL, and kets^T Q kets is diagonal to 1e-12 of max q_norm.
    Both checks share one N x N work buffer.

    The system is built once per size: the last one is kept, and a call with
    the same N returns it again (a new N replaces it).  So its kets, ketkets
    and q_norms are read-only, and the kept system holds 16 N^2 bytes.
    """
    return _build_system(_require_size(N))


@functools.lru_cache(maxsize=1)
def _build_system(N: int) -> BiorthogonalSystem:
    H = build_hamiltonian(N)
    eigenvalues = spectrum(H)
    kets = ket(N, eigenvalues.roots)
    ketkets = build_metric_Q(N)[:, None] * kets
    q_norms = np.einsum("ij,ij->j", kets, ketkets)

    buffer = kets * eigenvalues.roots[None, :]  # kets E - H kets, band by band
    buffer[:-1] -= H.superdiagonal[:, None] * kets[1:]
    buffer[1:] -= H.subdiagonal[:, None] * kets[:-1]
    residual = np.abs(buffer, out=buffer).max()
    if residual > EIGEN_RESIDUAL_TOL:
        raise RuntimeError(f"eigen residual {residual:.3e} > {EIGEN_RESIDUAL_TOL:.0e} at N={N}")
    gram = np.matmul(kets.T, ketkets, out=buffer)
    np.fill_diagonal(gram, 0.0)
    off, gate = np.abs(gram, out=gram).max(), 1e-12 * np.max(q_norms)
    if off > gate:
        raise RuntimeError(f"biorthogonality: Gram off-diagonal {off:.3e} > {gate:.3e} at N={N}")
    for array in (kets, ketkets, q_norms):
        array.setflags(write=False)
    return BiorthogonalSystem(N, eigenvalues, kets, ketkets, q_norms)
