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
from dataclasses import dataclass, field

import numpy as np

from ._size import _as_real, _require_finite, _require_size
from .legendre import RootSet, _legendre_values, roots_P

EIGEN_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LatticeHamiltonian:
    """The N x N truncated Legendre recurrence matrix, zero on its diagonal: N fixes both bands."""

    dimension: int
    superdiagonal: np.ndarray = field(init=False)
    subdiagonal: np.ndarray = field(init=False)

    def __post_init__(self):
        N = _require_size(self.dimension)
        n = np.arange(N - 1, dtype=float)
        object.__setattr__(self, "dimension", N)
        object.__setattr__(self, "superdiagonal", (n + 1) / (2 * n + 1))
        object.__setattr__(self, "subdiagonal", (n + 1) / (2 * n + 3))


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Eigenvalues, kets and Q-norms of the lattice model; `dimension` and `ketkets` are derived.

    kets[:, j] has components (P_0(E_j), ..., P_{N-1}(E_j)); ketkets are
    Q kets; q_norms[j] = kets[:, j]^T Q kets[:, j].  Together they resolve
    the identity: sum_j kets_j (1/q_norms_j) kets_j^T Q = I.
    """

    dimension: int = field(init=False)
    eigenvalues: RootSet
    kets: np.ndarray
    q_norms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dimension", len(self.kets))

    @property
    def ketkets(self) -> np.ndarray:
        """Q kets, formed anew on each access: a new, writable N x N array."""
        return build_metric_Q(self.dimension)[:, None] * self.kets


def build_hamiltonian(N: int) -> LatticeHamiltonian:
    """N x N truncation of the Legendre recurrence matrix: `LatticeHamiltonian(N)`."""
    return LatticeHamiltonian(N)


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

    For an array of energies, ket(N, E)[:, j] is the column of E[j].  E must be
    real and finite (`_size._as_real`), and a column that overflows is a ValueError.
    """
    N = _require_size(N)
    E = _as_real(E, "E")
    kets = np.empty((N, *E.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: the gate below reads it
        for n, values in zip(range(N), _legendre_values(E)):
            kets[n] = values
    _require_finite(kets, f"the length-{N} ket")
    return kets


def biorthogonal_system(N: int) -> BiorthogonalSystem:
    """Assemble and validate the full biorthogonal eigensystem at size N.

    The kets come from one recurrence over all roots of P_N.  Gates: the eigen residual
    max|H kets - kets E| (from the two bands of H) is at most EIGEN_RESIDUAL_TOL, and the Gram
    W^T W = kets^T Q kets, W = sqrt(Q) kets, is diagonal to 1e-12 of max q_norm.  Both are read by
    64-column blocks, with no N x N work buffer: peak 2.2 arrays of 8 N^2 bytes at N = 1024.

    The system is built once per size: the last one is kept, and a call with
    the same N returns it again (a new N replaces it).  So its kets and q_norms
    are read-only; it holds 8 N^2 bytes, and forms its ketkets on each access.
    """
    return _build_system(_require_size(N))


@functools.lru_cache(maxsize=1)
def _build_system(N: int) -> BiorthogonalSystem:
    H = LatticeHamiltonian(N)
    eigenvalues = spectrum(H)
    kets = ket(N, eigenvalues.roots)
    ketkets = build_metric_Q(N)[:, None] * kets
    q_norms = np.einsum("ij,ij->j", kets, ketkets)
    W = np.divide(ketkets, np.sqrt(build_metric_Q(N))[:, None], out=ketkets)
    residual, off, gate = 0.0, 0.0, 1e-12 * np.max(q_norms)
    for c in range(0, N, 64):  # kets E - H kets band by band; rows c.. of W^T W's upper triangle
        misfit = kets[:, c : c + 64] * eigenvalues.roots[c : c + 64]
        misfit[:-1] -= H.superdiagonal[:, None] * kets[1:, c : c + 64]
        misfit[1:] -= H.subdiagonal[:, None] * kets[:-1, c : c + 64]
        gram = W[:, c : c + 64].T @ W[:, c:]
        np.fill_diagonal(gram, 0.0)
        residual, off = np.maximum((residual, off), (np.abs(misfit).max(), np.abs(gram).max()))
    if residual > EIGEN_RESIDUAL_TOL:
        raise RuntimeError(f"eigen residual {residual:.3e} > {EIGEN_RESIDUAL_TOL:.0e} at N={N}")
    if off > gate:
        raise RuntimeError(f"biorthogonality: Gram off-diagonal {off:.3e} > {gate:.3e} at N={N}")
    for array in (kets, q_norms):
        array.setflags(write=False)
    return BiorthogonalSystem(eigenvalues, kets, q_norms)
