"""Physical metrics for the lattice model and their charge operators.

Every metric Theta making H quasi-Hermitian is a positive combination of
ketket projectors, Theta = sum_j (Q psi_j) kappa_j (Q psi_j)^T, with free
weights kappa_j > 0.  The exceptional weights kappa_j = 1/n_j collapse
Theta back onto the diagonal Q (trivial charge).  A one-parameter
tridiagonal slice of the family, Theta(alpha) = Q + alpha T with couplings
t_n = n + 1, is the unique tridiagonal solution of the intertwining
relation with diagonal part Q and t_0 = 1 (verified exactly in the
exact_oracle module).

Definiteness comes from one of two paths.  The tridiagonal family is
classified in O(N) by Sturm counts (`sturm_count`, the LDL^T pivot kernel of
the `tridiagonal` module that also certifies the Legendre roots): by
Sylvester's law of inertia the number of negative pivots of Theta - sigma I
is the number of eigenvalues below sigma, and counts at sigma = +thr and
-thr give the three labels.  Dense metrics (kappa-family and external) are
classified by one Cholesky factorization of Theta - thr I with an
eigenvalue tie-break.

Error model of the threshold thr = 1e-12 max(1, max|Theta|): the computed
pivots are the exact pivots of a matrix with the same diagonal and
off-diagonal entries perturbed by relative errors of at most 2.5 eps
(Kahan; Demmel, Applied Numerical Linear Algebra, lemma 5.4).  Each count is
thus exact for eigenvalues moved by at most 5 eps max|Theta| (about
1.1e-15 max|Theta|), three orders of magnitude inside thr, and a label can
differ from exact arithmetic only for an eigenvalue that close to +thr or
-thr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BiorthogonalSystem, DiagonalMetric, build_hamiltonian, build_metric_Q
from .tridiagonal import _negative_pivots, sturm_count

__all__ = [
    "KappaVector",
    "MetricOperator",
    "ChargeOperator",
    "TridiagonalMetricFamily",
    "metric_from_kappa",
    "exceptional_kappa",
    "charge_operator",
    "kappa_from_metric",
    "dieudonne_residual",
    "tridiagonal_metric",
    "tridiagonal_family",
    "classify_definiteness",
    "sturm_count",
    "tridiagonal_definiteness",
]

SYMMETRY_TOL = 1e-12
PIVOT_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class KappaVector:
    """Weights selecting one metric out of the quasi-Hermitian family."""

    dimension: int
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.dimension:
            raise ValueError("kappa length does not match dimension")


@dataclass(frozen=True)
class MetricOperator:
    """A symmetric candidate metric with an honest definiteness label."""

    dimension: int
    matrix: np.ndarray
    definiteness: str  # positive-definite | singular | indefinite
    provenance: str  # diagonal-Q | kappa-family | tridiagonal-family | external

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "matrix": self.matrix.tolist(),
            "definiteness": self.definiteness,
            "provenance": self.provenance,
        }

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, provenance: str = "external") -> "MetricOperator":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix.shape[0], matrix, classify_definiteness(matrix), provenance)


@dataclass(frozen=True)
class ChargeOperator:
    """The factor C in the decomposition Theta = Q C."""

    dimension: int
    matrix: np.ndarray

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "matrix": self.matrix.tolist()}


@dataclass(frozen=True)
class TridiagonalMetricFamily:
    """The line Theta(alpha) = diag + alpha T inside the metric family."""

    dimension: int
    diagonal: np.ndarray
    coupling_base: np.ndarray  # t_n = n + 1, normalized t_0 = 1

    def coupling_matrix(self) -> np.ndarray:
        return np.diag(self.coupling_base, 1) + np.diag(self.coupling_base, -1)

    def offdiagonal(self, alpha) -> np.ndarray:
        """alpha t: the couplings on axis 0, followed by the axes of alpha."""
        alpha = np.asarray(alpha, dtype=float)
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha must be finite")
        return np.multiply.outer(self.coupling_base, alpha)

    def definiteness(self, alpha) -> np.ndarray:
        """Labels of Theta(alpha), shaped like alpha, in O(N) per alpha."""
        return tridiagonal_definiteness(self.diagonal, self.offdiagonal(alpha))

    def positive_definite(self, alpha: float) -> bool:
        """Whether Theta(alpha) is positive-definite: no negative pivot at +thr.

        The pivot recurrence of `sturm_count`, stopped at the first negative pivot.
        """
        offdiagonal = self.offdiagonal(alpha)
        threshold = _pivot_threshold(self.diagonal, offdiagonal)
        return _negative_pivots(self.diagonal, offdiagonal, threshold, first_only=True) == 0

    def realize(self, alpha: float) -> MetricOperator:
        definiteness = str(self.definiteness(alpha))
        matrix = np.diag(self.diagonal) + alpha * self.coupling_matrix()
        return MetricOperator(self.dimension, matrix, definiteness, "tridiagonal-family")


def _require_symmetric(matrix: np.ndarray) -> None:
    """Raise unless max|M - M^T| <= 1e-12 max(1, max|M|)."""
    scale = max(1.0, np.max(np.abs(matrix)))
    if np.max(np.abs(matrix - matrix.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")


def _pivot_threshold(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """thr = 1e-12 max(1, max|Theta|), per matrix of a tridiagonal batch."""
    largest = np.abs(offdiagonal).max(axis=0, initial=np.abs(diagonal).max())
    return PIVOT_TOL * np.maximum(1.0, largest)


def tridiagonal_definiteness(diagonal, offdiagonal) -> np.ndarray:
    """Definiteness labels of symmetric tridiagonal matrices from Sturm counts.

    No eigenvalue below +thr: positive-definite; none below -thr: singular;
    otherwise indefinite (thr as in `classify_definiteness`).  Batched like
    `sturm_count`; returns a string array of the batch shape.
    """
    threshold = _pivot_threshold(diagonal, offdiagonal)
    return np.where(
        sturm_count(diagonal, offdiagonal, threshold) == 0,
        "positive-definite",
        np.where(sturm_count(diagonal, offdiagonal, -threshold) == 0, "singular", "indefinite"),
    )


def classify_definiteness(matrix: np.ndarray) -> str:
    """Classify a dense symmetric matrix as positive-definite, singular or indefinite.

    The path for kappa-family and external metrics; the tridiagonal family
    uses `tridiagonal_definiteness`.  Positive-definite when the Cholesky
    factorization of Theta - thr I succeeds, thr = 1e-12 max(1, max|Theta|);
    otherwise the smallest eigenvalue breaks the tie: within thr of zero is
    singular, below it indefinite.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite (NaN or inf) entries")
    _require_symmetric(matrix)
    threshold = PIVOT_TOL * max(1.0, np.max(np.abs(matrix)))
    try:
        np.linalg.cholesky(matrix - threshold * np.eye(len(matrix)))
        return "positive-definite"
    except np.linalg.LinAlgError:
        pass
    smallest = np.linalg.eigvalsh(matrix)[0]
    if abs(smallest) <= threshold:
        return "singular"
    return "positive-definite" if smallest > 0 else "indefinite"


def metric_from_kappa(
    system: BiorthogonalSystem, kappa: KappaVector, strict: bool = True
) -> MetricOperator:
    """Theta = sum_j (Q psi_j) kappa_j (Q psi_j)^T.

    With all kappa_j > 0 this is positive-definite by construction.  The
    relaxed mode (strict=False) admits arbitrary signs so positivity-loss
    experiments can cross the boundary; the definiteness label stays honest.
    """
    if kappa.dimension != system.dimension:
        raise ValueError("kappa dimension does not match system")
    if not np.all(np.isfinite(kappa.values)):
        raise ValueError("kappa must be finite")
    if strict and np.any(kappa.values <= 0):
        raise ValueError("kappa must be strictly positive in strict mode")
    matrix = (system.ketkets * kappa.values[None, :]) @ system.ketkets.T
    matrix = 0.5 * (matrix + matrix.T)
    return MetricOperator(
        system.dimension, matrix, classify_definiteness(matrix), "kappa-family"
    )


def exceptional_kappa(system: BiorthogonalSystem) -> KappaVector:
    """The weights kappa_j = 1/n_j at which the metric collapses onto Q."""
    return KappaVector(system.dimension, 1.0 / system.q_norms)


def charge_operator(Q: DiagonalMetric, theta: MetricOperator) -> ChargeOperator:
    """C = Q^{-1} Theta, the charge-like factor in Theta = Q C."""
    if Q.dimension != theta.dimension:
        raise ValueError("dimension mismatch between Q and theta")
    return ChargeOperator(theta.dimension, theta.matrix / Q.entries[:, None])


def dieudonne_residual(Lambda: np.ndarray, theta: MetricOperator) -> float:
    """Normalized max-norm of Lambda^dagger Theta - Theta Lambda."""
    Lambda = np.asarray(Lambda)
    if Lambda.shape != theta.matrix.shape:
        raise ValueError("dimension mismatch between Lambda and theta")
    residual = Lambda.conj().T @ theta.matrix - theta.matrix @ Lambda
    scale = max(1.0, np.max(np.abs(theta.matrix)) * np.max(np.abs(Lambda)))
    return float(np.max(np.abs(residual)) / scale)


def kappa_from_metric(system: BiorthogonalSystem, theta: MetricOperator) -> KappaVector:
    """Recover the weights of a family member: kappa_j = psi_j^T Theta psi_j / n_j^2.

    Rejects matrices outside the family, for which the projection would be
    meaningless: dieudonne_residual(H, theta) > 1e-9, which is
    max|H^T Theta - Theta H| > 1e-9 max(1, max|Theta|) because
    max|H| = H[0, 1] = 1 for N >= 2 (at N = 1 both residuals are 0).
    """
    if theta.dimension != system.dimension:
        raise ValueError("dimension mismatch")
    if dieudonne_residual(build_hamiltonian(system.dimension).to_dense(), theta) > MEMBERSHIP_TOL:
        raise ValueError("matrix does not intertwine with H: not in the metric family")
    quad = np.einsum("ij,ik,kj->j", system.kets, theta.matrix, system.kets)
    return KappaVector(system.dimension, quad / system.q_norms**2)


def tridiagonal_family(N: int) -> TridiagonalMetricFamily:
    """The tridiagonal metric line at size N (couplings t_n = n + 1)."""
    if N < 2:
        raise ValueError("N must be at least 2")
    Q = build_metric_Q(N)
    return TridiagonalMetricFamily(N, Q.entries, np.arange(1, N, dtype=float))


def tridiagonal_metric(N: int, alpha: float) -> MetricOperator:
    """Theta(alpha) = Q + alpha T for the unique tridiagonal-ansatz couplings."""
    return tridiagonal_family(N).realize(alpha)
