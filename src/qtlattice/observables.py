"""Observability of candidate operators in the physical inner product.

An operator Lambda is an observable with respect to a metric Theta when
Lambda^dagger Theta = Theta Lambda.  This module provides the direct
residual test (`dieudonne_residual`, defined in `metrics`), a constructor
of certified observables (Theta^{-1} K for symmetric K), and the
overlap-matrix reformulation: with kets renormalized to unit Q-norm, the
product M = U V of the two overlap matrices is Hermitian exactly when the
residual test passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BiorthogonalSystem
from .metrics import KappaVector, MetricOperator, _require_symmetric, dieudonne_residual

__all__ = [
    "ObservableSpectralData",
    "OverlapPair",
    "dieudonne_residual",
    "observable_from_hermitian",
    "spectral_data",
    "overlap_matrices",
    "criterion_product_hermitian",
]

GAP_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
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
    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    pairing_norms: np.ndarray


@dataclass(frozen=True)
class OverlapPair:
    """The two overlap matrices and their product, with its asymmetry."""

    U: np.ndarray
    V: np.ndarray
    M: np.ndarray
    hermiticity_residual: float


def observable_from_hermitian(K: np.ndarray, theta: MetricOperator) -> np.ndarray:
    """Lambda = Theta^{-1} K, an observable for Theta by construction."""
    K = np.asarray(K, dtype=float)
    _require_symmetric(K)
    if 1.0 / np.linalg.cond(theta.matrix) < 1e-13:
        raise ValueError("theta is numerically singular")
    return np.linalg.solve(theta.matrix, K)


def spectral_data(Lambda: np.ndarray) -> ObservableSpectralData:
    """Full biorthogonal eigensystem of Lambda with validation.

    Requires a simple spectrum (minimum gap above 1e-10).  One LAPACK
    `geev` call returns both eigenvector sets for the same eigenvalues:
    its left vectors v satisfy v^H Lambda = lambda v^H, so their conjugates
    are the eigenvectors of Lambda^T.  Eigenvalues are sorted by real, then
    imaginary part, and both vector sets follow the same permutation.
    scipy is imported here, not with the package, so that commands without
    an observable do not load it.
    """
    from scipy.linalg import eig

    Lambda = np.asarray(Lambda, dtype=complex)
    N = Lambda.shape[0]
    eigenvalues, left, right = eig(Lambda, left=True, right=True)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues, right, left = eigenvalues[order], right[:, order], left[:, order].conj()
    if N > 1:
        gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() <= GAP_TOL:
            raise ValueError("spectrum is degenerate or near-degenerate")
    pairing = np.einsum("ij,ij->j", left, right)
    if np.min(np.abs(pairing)) < 1e-13:
        raise ValueError("vanishing left/right pairing norm")
    reconstruction = (right * (eigenvalues / pairing)[None, :]) @ left.T
    scale = max(1.0, np.max(np.abs(Lambda)))
    if np.max(np.abs(reconstruction - Lambda)) > RECONSTRUCTION_TOL * scale:
        raise RuntimeError("spectral reconstruction residual too large")
    return ObservableSpectralData(N, Lambda, eigenvalues, right, left, pairing)


def overlap_matrices(
    system: BiorthogonalSystem, kappa: KappaVector, data: ObservableSpectralData
) -> OverlapPair:
    """Build U, V and their product M for the Hermiticity criterion.

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
    return OverlapPair(U, V, M, residual)


def criterion_product_hermitian(
    pair: OverlapPair, tol: float = DEFAULT_CRITERION_TOL
) -> bool:
    """True iff the overlap product is Hermitian within tolerance."""
    return pair.hermiticity_residual <= tol * max(1.0, float(np.max(np.abs(pair.M))))
