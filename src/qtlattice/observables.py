"""Observability of candidate operators in the physical inner product.

An operator Lambda is an observable with respect to a metric Theta when Lambda^dagger Theta =
Theta Lambda: for a symmetric Theta, when Theta Lambda is Hermitian.  The residual test
(`dieudonne_residual`) reads that from one product by `metrics._asymmetry`, max|M - M^H|.  This
module also gives a constructor of certified observables (Theta^{-1} K for symmetric K), and the
overlap-matrix reformulation: with kets renormalized to unit Q-norm, the product M = U V of the
two overlap matrices is Hermitian (`OverlapPair`, by the same residual) exactly when the residual
test passes.  The eigensystem of a candidate comes from numpy alone, in real arithmetic for a real
candidate: one `eig` for its eigenvalues and right vectors, and the rows of the inverse of their
matrix for its left ones.  A candidate Lambda or M passes `_size._as_square`, K `_as_symmetric`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._size import _as_real, _as_square, _require_finite, _rescaled
from .lattice import BiorthogonalSystem
from .metrics import KappaVector, MetricOperator, _as_symmetric, _asymmetry, _largest

GAP_TOL = 1e-10
DEFAULT_CRITERION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ObservableSpectralData:
    """Left/right eigensystem of a candidate observable.

    right_vectors[:, j] and left_vectors[:, j] (eigenvectors of the transpose, Lambda^T l =
    lambda l) share eigenvalue eigenvalues[j], all float64 for a real Lambda with a real spectrum
    (numpy's `eig`), else complex; pairing_norms[j] is the unconjugated overlap left_j . right_j,
    so the spectral reconstruction reads Lambda = sum_j right_j (lambda_j / pairing_j) left_j^T.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    pairing_norms: np.ndarray


@dataclass(frozen=True, eq=False)
class OverlapPair:
    """The product M = U V of the two overlap matrices, and its `_asymmetry` max|M - M^H|; M must
    be a nonempty, square and finite matrix of numbers (complex too), else a ValueError naming M."""

    M: np.ndarray
    hermiticity_residual: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "M", _as_square(self.M, "M"))
        object.__setattr__(self, "hermiticity_residual", _asymmetry(self.M))


def dieudonne_residual(Lambda: np.ndarray, theta: MetricOperator) -> float:
    """max|Lambda^dagger Theta - Theta Lambda| / (max|Theta| max|Lambda|), read from the one
    product Theta Lambda as its `_asymmetry`: exact for a symmetric Theta, and within
    2 N a max|Lambda| (unscaled) where `MetricOperator` allows asymmetry a <= 1e-12 max|Theta|.

    ValueError unless Lambda is a finite matrix (complex too) of the shape of Theta.  The scale
    has no floor, so the residual and its verdict are the same up to rounding when Theta or Lambda
    is rescaled: each whose max |entry| leaves [2^-250, 2^250] (subnormal or a complex modulus
    that overflowed included) is first scaled by one exact power of two (`_size._rescaled`), so
    no N-term sum of products over- or underflows, and both maxima are read after it.  A zero
    residual is 0, also for a zero Theta or Lambda.
    """
    Lambda, matrix = _as_square(Lambda, "Lambda"), theta.matrix
    if Lambda.shape != matrix.shape:
        raise ValueError("dimension mismatch between Lambda and theta")
    a, b = _largest(matrix), _largest(Lambda)
    matrix, a = _rescaled(a, matrix, a)  # Theta is real: max|c Theta| = c max|Theta| exactly
    (scaled,) = _rescaled(b, Lambda)  # a complex modulus may round or overflow: read it again
    return _asymmetry(matrix @ scaled, a * (b if scaled is Lambda else _largest(scaled)))


def observable_from_hermitian(K: np.ndarray, theta: MetricOperator) -> np.ndarray:
    """Lambda = Theta^{-1} K for finite symmetric K, an observable for Theta by construction."""
    K = _as_symmetric(K, "K")[0]
    if K.shape != theta.matrix.shape:
        raise ValueError("dimension mismatch between K and theta")
    magnitudes = np.abs(np.linalg.eigvalsh(theta.matrix))  # Theta is symmetric: cond = max/min
    if not magnitudes.min() > 1e-13 * magnitudes.max():
        raise ValueError("theta is numerically singular")
    Lambda = np.linalg.solve(theta.matrix, K)
    _require_finite(Lambda, "Theta^{-1} K")
    return Lambda


def spectral_data(Lambda: np.ndarray) -> ObservableSpectralData:
    """Full biorthogonal eigensystem of Lambda with validation.

    Requires a simple spectrum: every gap between two eigenvalues must exceed
    GAP_TOL max|Lambda|, so the verdict does not change when Lambda is
    rescaled (a zero Lambda is degenerate); the gaps are read by 64-row blocks, with no N x N
    array of them (peak 3.0 arrays of 8 N^2 bytes at N = 256 for a real spectrum, 6.0 for a
    complex one).  One `np.linalg.eig` in double precision, real
    (`dgeev`) for a real Lambda, gives the eigenvalues and right vectors R, sorted by real,
    then imaginary part.  Lambda R = R diag(lambda) gives R^{-1} Lambda = diag(lambda) R^{-1}:
    row j of R^{-1}, transposed, is an eigenvector of Lambda^T for lambda_j,
    so both sets belong to the same eigenvalues by construction.  The left
    vectors are scaled to unit 2-norm, as `geev` scales its own.

    The one gate is on the conditioning of the eigenvectors.  With unit vectors, kappa_j =
    1/|pairing_j| is the condition number of lambda_j: its rounding error is about
    eps kappa_j max|Lambda|, and it enters the reconstruction through an eigenprojector
    right_j left_j^T / pairing_j of norm kappa_j.  The reconstruction error is modelled as
    N eps kappa^2 max|Lambda| with kappa = max_j kappa_j, which is at least
    eps cond(R) kappa max|Lambda| because cond(R) <= N kappa.  The model must not exceed
    1e-10 max|Lambda| max(1, N/64): a fixed relative 1e-10 up to N = 64, then growing as the
    model's floor N eps max|Lambda| does.  With max|Lambda| cancelled, the gate (and its error
    message) reads N eps kappa^2 <= 1e-10 max(1, N/64), the same for c Lambda as for Lambda.
    So the verdict is a property of the input, not of how one product rounds.  Lambda must be a
    nonempty, square and finite matrix of numbers (complex ones too, not text), as `OverlapPair`'s
    M; each failure, that check and a singular R (`LinAlgError`) included, is a `ValueError`.
    """
    Lambda = _as_square(Lambda, "Lambda")
    N = Lambda.shape[0]
    eigenvalues, right = np.linalg.eig(Lambda)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues, right = eigenvalues[order], right[:, order]
    left = np.linalg.inv(right).T
    left /= np.linalg.norm(left, axis=0)
    smallest = np.inf  # N = 1: no gap
    with np.errstate(over="ignore"):  # an infinite gap is not degenerate
        for i in range(0, N, 64):  # 64 rows of the upper triangle at a time, as `_asymmetry`
            gaps = np.abs(eigenvalues[i : i + 64, None] - eigenvalues[i:])
            np.fill_diagonal(gaps, np.inf)
            smallest = np.minimum(smallest, gaps.min())
    if smallest <= GAP_TOL * _largest(Lambda):
        raise ValueError("spectrum is degenerate or near-degenerate")
    pairing = np.einsum("ij,ij->j", left, right)
    with np.errstate(divide="ignore", over="ignore"):  # a zero pairing: an infinite estimate
        estimate = N * np.finfo(float).eps * np.max(1.0 / np.abs(pairing)) ** 2
    tol = 1e-10 * max(1.0, N / 64)
    if not estimate <= tol:
        raise ValueError(
            f"eigenvectors too ill-conditioned: reconstruction error estimate {estimate:.1e} > {tol:.1e}"
        )
    return ObservableSpectralData(eigenvalues, right, left, pairing)


def overlap_matrices(
    system: BiorthogonalSystem, kappa: KappaVector, data: ObservableSpectralData
) -> OverlapPair:
    """Build the product M = U V of the two overlap matrices for the Hermiticity criterion.

    With kets at unit Q-norm and weights rescaled in step (kappa_j -> kappa_j n_j),
    U = S^T L with rows divided by kappa n^{3/2} and V = R^T (Q S) with rows times
    lambda / pairing and columns divided by sqrt(n): each diagonal is applied as a
    vector, so no normalized ket copy is formed.  M = U V is Hermitian iff Lambda
    passes the residual test against the kappa-family metric.  Weights that make M
    not finite (a zero or tiny one) are a ValueError.
    """
    if not (system.dimension == kappa.dimension == len(data.eigenvalues)):
        raise ValueError("dimension mismatch")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # OverlapPair's gate
        U = system.kets.T @ data.left_vectors
        U /= (kappa.values * system.q_norms**1.5)[:, None]
        scale = data.eigenvalues / data.pairing_norms  # complex over real vectors too
        V = (data.right_vectors.T @ system.ketkets) * scale[:, None]
        V /= np.sqrt(system.q_norms)
        M = U @ V
    return OverlapPair(M)


def criterion_product_hermitian(
    pair: OverlapPair, tol: float = DEFAULT_CRITERION_TOL
) -> bool:
    """True iff the overlap product is Hermitian within tolerance.

    The gate is max|M - M^H| <= tol max|M|, so c M gets the verdict of M for every c > 0: where
    max|M| leaves [2^-250, 2^250] (subnormal or a complex modulus that overflowed included), M is
    judged scaled by one exact power of two (`_size._rescaled`), so neither M - M^H, |z| nor
    tol max|M| over- or underflows.  tol is one finite real > 0, as `--tol-criterion`.  Peak:
    0.06 arrays of 8 N^2 bytes, complex M, N = 1024.
    """
    tol = float(_as_real(tol, "tol", 0))
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol}")
    largest = _largest(pair.M)
    (M,) = _rescaled(largest, pair.M)
    if M is pair.M:  # in the window: the residual read when the pair was built
        return pair.hermiticity_residual <= tol * largest
    return _asymmetry(M) <= tol * _largest(M)
