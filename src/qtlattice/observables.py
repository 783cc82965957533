"""Observability of candidate operators in the physical inner product.

An operator Lambda is an observable with respect to a metric Theta when
Lambda^dagger Theta = Theta Lambda.  This module provides the direct
residual test (`dieudonne_residual`), a constructor
of certified observables (Theta^{-1} K for symmetric K), and the
overlap-matrix reformulation: with kets renormalized to unit Q-norm, the
product M = U V of the two overlap matrices is Hermitian exactly when the
residual test passes.  The eigensystem of a candidate comes from numpy
alone: one `eig` for its eigenvalues and right vectors, and the rows of the
inverse of the right-vector matrix for its left vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BiorthogonalSystem
from .metrics import KappaVector, MetricOperator, _as_real, _relative_max, _require_finite
from .metrics import _require_square, _require_symmetric

GAP_TOL = 1e-10
DEFAULT_CRITERION_TOL = 1e-10


@dataclass(frozen=True)
class ObservableSpectralData:
    """Left/right eigensystem of a candidate observable.

    right_vectors[:, j] and left_vectors[:, j] (eigenvectors of the
    transpose, Lambda^T l = lambda l) share eigenvalue eigenvalues[j];
    pairing_norms[j] is the unconjugated overlap left_j . right_j, so the
    spectral reconstruction reads Lambda = sum_j right_j (lambda_j / pairing_j) left_j^T.
    """

    dimension: int
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    pairing_norms: np.ndarray


@dataclass(frozen=True)
class OverlapPair:
    """The product M = U V of the two overlap matrices, with its asymmetry."""

    M: np.ndarray
    hermiticity_residual: float


def dieudonne_residual(Lambda: np.ndarray, theta: MetricOperator) -> float:
    """max|Lambda^dagger Theta - Theta Lambda| / (max|Theta| max|Lambda|).

    ValueError unless Lambda and Theta hold finite numbers (complex ones too)
    and the residual is finite.  The scale has no floor, so the residual, and
    a verdict drawn from it, is the same up to rounding when Theta or Lambda
    is rescaled.  A zero residual is 0, also for a zero Theta or Lambda.
    """
    Lambda = np.asarray(Lambda)
    if Lambda.shape != theta.matrix.shape:
        raise ValueError("dimension mismatch between Lambda and theta")
    _require_finite(Lambda, "Lambda")
    _require_finite(theta.matrix, "theta")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: an inf or NaN residual
        residual = Lambda.conj().T @ theta.matrix - theta.matrix @ Lambda
        scale = np.max(np.abs(theta.matrix)) * np.max(np.abs(Lambda))
        residual = _relative_max(residual, scale)
    _require_finite(residual, "the Dieudonne residual")
    return residual


def observable_from_hermitian(K: np.ndarray, theta: MetricOperator) -> np.ndarray:
    """Lambda = Theta^{-1} K for finite symmetric K, an observable for Theta by construction."""
    K = _as_real(K, "K")
    _require_symmetric(K)
    _require_finite(theta.matrix, "theta")
    if 1.0 / np.linalg.cond(theta.matrix) < 1e-13:
        raise ValueError("theta is numerically singular")
    Lambda = np.linalg.solve(theta.matrix, K)
    _require_finite(Lambda, "Theta^{-1} K")
    return Lambda


def spectral_data(Lambda: np.ndarray) -> ObservableSpectralData:
    """Full biorthogonal eigensystem of Lambda with validation.

    Requires a simple spectrum: every gap between two eigenvalues must exceed
    GAP_TOL max|Lambda|, so the verdict does not change when Lambda is
    rescaled (a zero Lambda is degenerate).  One `np.linalg.eig`
    gives the eigenvalues and right vectors R, sorted by real, then imaginary
    part.  Lambda R = R diag(lambda) gives R^{-1} Lambda = diag(lambda) R^{-1}:
    row j of R^{-1}, transposed, is an eigenvector of Lambda^T for lambda_j,
    so both sets belong to the same eigenvalues by construction.  The left
    vectors are scaled to unit 2-norm, as `geev` scales its own.

    The one gate is on the conditioning of the eigenvectors.  With unit
    vectors, kappa_j = 1/|pairing_j| is the condition number of lambda_j: its
    rounding error is about eps kappa_j max|Lambda|, and it enters the
    reconstruction through an eigenprojector right_j left_j^T / pairing_j of
    norm kappa_j.  The reconstruction error is modelled as
    N eps kappa^2 max|Lambda| with kappa = max_j kappa_j, which is at least
    eps cond(R) kappa max|Lambda| because cond(R) <= N kappa.  The model must
    not exceed 1e-10 max|Lambda| max(1, N/64): a fixed relative 1e-10 up to
    N = 64, then growing as the model's floor N eps max|Lambda| does.  With
    max|Lambda| cancelled, the gate (and its error message) reads
    N eps kappa^2 <= 1e-10 max(1, N/64), the same for c Lambda as for Lambda.
    So the verdict is a property of the input, not of how one product rounds.
    Lambda must be a nonempty, square and finite matrix of numbers (complex
    ones too, not text); each failure, that check and a singular R
    (`LinAlgError`) included, is a `ValueError`.
    """
    Lambda = np.asarray(Lambda)
    _require_square(Lambda, "Lambda")
    Lambda = Lambda.astype(complex)
    N = Lambda.shape[0]
    eigenvalues, right = np.linalg.eig(Lambda)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues, right = eigenvalues[order], right[:, order]
    left = np.linalg.inv(right).T
    left /= np.linalg.norm(left, axis=0)
    if N > 1:
        gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() <= GAP_TOL * np.max(np.abs(Lambda)):
            raise ValueError("spectrum is degenerate or near-degenerate")
    pairing = np.einsum("ij,ij->j", left, right)
    with np.errstate(divide="ignore", over="ignore"):  # a zero pairing: an infinite estimate
        estimate = N * np.finfo(float).eps * np.max(1.0 / np.abs(pairing)) ** 2
    tol = 1e-10 * max(1.0, N / 64)
    if not estimate <= tol:
        raise ValueError(
            f"eigenvectors too ill-conditioned: reconstruction error estimate {estimate:.1e} > {tol:.1e}"
        )
    return ObservableSpectralData(N, eigenvalues, right, left, pairing)


def overlap_matrices(
    system: BiorthogonalSystem, kappa: KappaVector, data: ObservableSpectralData
) -> OverlapPair:
    """Build the product M = U V of the two overlap matrices for the Hermiticity criterion.

    Kets are renormalized internally to unit Q-norm; the weights are
    rescaled in step (kappa_j -> kappa_j n_j) so the metric they encode is
    unchanged.  U pairs renormalized kets with left vectors of Lambda,
    V pairs right vectors of Lambda with renormalized ketkets, and
    M = U V is Hermitian iff Lambda passes the residual test against the
    kappa-family metric.
    """
    if not (system.dimension == kappa.dimension == data.dimension):
        raise ValueError("dimension mismatch")
    norms = np.sqrt(system.q_norms)
    kets_hat = system.kets / norms[None, :]
    ketkets_hat = system.ketkets / norms[None, :]
    weights = kappa.values * system.q_norms
    U = (kets_hat.T @ data.left_vectors) / weights[:, None]
    V = ((data.eigenvalues / data.pairing_norms)[:, None]) * (
        data.right_vectors.T @ ketkets_hat
    )
    M = U @ V
    residual = float(np.max(np.abs(M - M.conj().T)))
    return OverlapPair(M, residual)


def criterion_product_hermitian(
    pair: OverlapPair, tol: float = DEFAULT_CRITERION_TOL
) -> bool:
    """True iff the overlap product is Hermitian within tolerance.

    The gate is max|M - M^H| <= tol max|M|, relative to the product itself,
    so the verdict does not change when Lambda is rescaled.
    """
    return pair.hermiticity_residual <= tol * float(np.max(np.abs(pair.M)))
