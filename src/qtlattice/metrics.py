"""Physical metrics for the lattice model and their charge operators.

Every metric Theta making H quasi-Hermitian is a positive combination of
ketket projectors, Theta = sum_j (Q psi_j) kappa_j (Q psi_j)^T, with free
weights kappa_j > 0.  The exceptional weights kappa_j = 1/n_j collapse
Theta back onto the diagonal Q (trivial charge).  A one-parameter
tridiagonal slice of the family, Theta(alpha) = Q + alpha T with couplings
t_n = n + 1, is the unique tridiagonal solution of the intertwining
relation with diagonal part Q and t_0 = 1 (verified exactly in the
`exact` module).  Its couplings are t_n = 2 q_n H_{n,n+1}, so T = 2 Q H
and Theta(alpha) = Q (I + 2 alpha H): the slice is the family member with
kappa_j = (1 + 2 alpha E_j)/n_j, its charge is C = I + 2 alpha H, and it is
positive-definite exactly for |alpha| < 1/(2 max E_j) (see `horizons`).
`_slice` gives its q = `build_metric_Q(N)` and alpha t, `_slice_matrix` the
dense Theta(alpha) or a stack of them, and `_none_below_threshold` its
positive-definiteness test; `horizons` uses these too.

Definiteness comes from one of two paths.  The tridiagonal slice is
classified in O(N) by Sturm counts (`sturm_count`, the LDL^T pivot kernel of
the `tridiagonal` module that also certifies the Legendre roots): by
Sylvester's law of inertia the number of negative pivots of Theta - sigma I
is the number of eigenvalues below sigma, and counts at sigma = +thr and
-thr give the three labels.  Dense metrics (kappa-family and external) are
classified by one Cholesky factorization of Theta - thr I with an
eigenvalue tie-break.

Error model of the threshold thr = 1e-12 max|Theta| (`_pivot_threshold`, both
paths): the computed pivots are the exact pivots of a matrix with the same
diagonal and off-diagonal entries perturbed by relative errors of at most
2.5 eps (Kahan; Demmel, Applied Numerical Linear Algebra, lemma 5.4).  Each
count is thus exact for eigenvalues moved by at most 5 eps max|Theta| (about
1.1e-15 max|Theta|), three orders of magnitude inside thr, and a label can
differ from exact arithmetic only for an eigenvalue that close to +thr or
-thr.  thr has no floor, so c Theta has the label of Theta for every c > 0.
Where thr = 0 (a zero Theta, or one below about 1e-312, where thr
underflows), both paths read singular unless positive-definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._size import _require_size
from .lattice import BiorthogonalSystem, LatticeHamiltonian, build_hamiltonian, build_metric_Q
from .tridiagonal import sturm_count

SYMMETRY_TOL = 1e-12
PIVOT_TOL = 1e-12
INTERTWINING_TOL = 1e-10


@dataclass(frozen=True)
class KappaVector:
    """Weights selecting one metric out of the quasi-Hermitian family."""

    dimension: int
    values: np.ndarray

    def __post_init__(self):
        values = _as_real(self.values, "kappa")
        object.__setattr__(self, "values", values)
        if values.shape != (_require_size(self.dimension),):
            raise ValueError("kappa length does not match dimension")


@dataclass(frozen=True)
class MetricOperator:
    """A symmetric candidate metric with an honest definiteness label."""

    dimension: int
    matrix: np.ndarray
    definiteness: str  # positive-definite | singular | indefinite
    provenance: str  # diagonal-Q | kappa-family | tridiagonal-family | external

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, provenance: str = "external") -> "MetricOperator":
        matrix = _as_real(matrix, "the matrix")
        definiteness = classify_definiteness(matrix)
        return cls(len(matrix), matrix, definiteness, provenance)


@dataclass(frozen=True)
class ChargeOperator:
    """The factor C in the decomposition Theta = Q C."""

    dimension: int
    matrix: np.ndarray


def _as_real(value, what: str) -> np.ndarray:
    """value as a float array; ValueError, naming `what`, for complex, text or object input."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, not {array.dtype} input")
    return array.astype(float, copy=False)


def _require_finite(value, what: str) -> None:
    """Raise unless value holds numbers (complex ones too) that are all finite."""
    value = np.asarray(value)
    if value.dtype.kind not in "biufc":
        raise ValueError(f"{what} must be numbers, not {value.dtype} input")
    if not np.isfinite(value).all():
        raise ValueError(f"{what} is not finite (NaN or inf)")


def _slice(N: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """q and alpha t of Theta(alpha) = Q + alpha T, t_n = n + 1 on axis 0 before alpha's axes."""
    alpha = _as_real(alpha, "alpha")
    _require_finite(alpha, "alpha")
    with np.errstate(over="ignore"):
        offdiagonal = np.multiply.outer(np.arange(1, N, dtype=float), alpha)
    _require_finite(offdiagonal, "alpha t")
    return build_metric_Q(N), offdiagonal


def _slice_matrix(q: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """The dense Theta(alpha) of `_slice`, or a stack over the trailing axes of alpha t."""
    N, batch = len(q), offdiagonal.shape[1:]
    flat, couplings = np.zeros((*batch, N * N)), np.moveaxis(offdiagonal, 0, -1)
    flat[..., :: N + 1] = q
    flat[..., 1 :: N + 1] += couplings  # added to zeros, a -0.0 coupling is stored as +0.0
    flat[..., N :: N + 1] += couplings
    return flat.reshape(*batch, N, N)


def _require_square(matrix: np.ndarray, what: str = "matrix") -> None:
    """Raise, naming `what`, unless the array is a nonempty, square and finite matrix."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ValueError(f"expected a nonempty square {what}, not one of shape {matrix.shape}")
    _require_finite(matrix, what)


def _require_symmetric(matrix: np.ndarray) -> None:
    """Raise unless M is nonempty, square, finite and max|M - M^T| <= 1e-12 max|M| (no floor)."""
    _require_square(matrix)
    with np.errstate(over="ignore"):  # M - M^T may overflow to inf, which fails the gate
        asymmetry = _relative_max(matrix - matrix.T, np.max(np.abs(matrix)))
    if asymmetry > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance")


def _pivot_threshold(diagonal, offdiagonal=()) -> np.ndarray:
    """thr = 1e-12 max|Theta| of a dense Theta, or per matrix of a tridiagonal batch
    given by its diagonal and off-diagonal entries (axis 0, as for `sturm_count`)."""
    return PIVOT_TOL * np.abs(offdiagonal).max(axis=0, initial=np.abs(diagonal).max())


def _none_below_threshold(diagonal, offdiagonal) -> np.ndarray:
    """True where no eigenvalue lies below thr: positive-definite, by one Sturm count per matrix."""
    return sturm_count(diagonal, offdiagonal, _pivot_threshold(diagonal, offdiagonal)) == 0


def tridiagonal_definiteness(diagonal, offdiagonal) -> np.ndarray:
    """Definiteness labels of symmetric tridiagonal matrices from Sturm counts.

    No eigenvalue below +thr: positive-definite; none below -thr, or thr = 0
    (where the counts at +-0 would take the zero pivots of a zero Theta as
    negative): singular; otherwise indefinite.  thr = 1e-12 max|Theta|.
    Batched like `sturm_count`; returns a string array of the batch shape.
    """
    threshold = _pivot_threshold(diagonal, offdiagonal)
    singular = (sturm_count(diagonal, offdiagonal, -threshold) == 0) | (threshold == 0)
    return np.where(
        _none_below_threshold(diagonal, offdiagonal),
        "positive-definite",
        np.where(singular, "singular", "indefinite"),
    )


def classify_definiteness(matrix: np.ndarray) -> str:
    """Classify a dense symmetric matrix as positive-definite, singular or indefinite.

    The path for kappa-family and external metrics; the tridiagonal family
    uses `tridiagonal_definiteness`.  Positive-definite when the Cholesky
    factorization of Theta - thr I succeeds, thr = 1e-12 max|Theta|
    (`_pivot_threshold`); otherwise the smallest eigenvalue breaks the tie:
    within thr of zero, or any eigenvalue where thr = 0, is singular, below
    it indefinite.
    """
    matrix = np.asarray(matrix, dtype=float)
    _require_symmetric(matrix)
    threshold = _pivot_threshold(matrix)
    try:
        np.linalg.cholesky(matrix - threshold * np.eye(len(matrix)))
        return "positive-definite"
    except np.linalg.LinAlgError:
        pass
    smallest = np.linalg.eigvalsh(matrix)[0]
    if abs(smallest) <= threshold or not threshold:
        return "singular"
    return "positive-definite" if smallest > 0 else "indefinite"


def metric_from_kappa(system: BiorthogonalSystem, kappa: KappaVector) -> MetricOperator:
    """Theta = sum_j (Q psi_j) kappa_j (Q psi_j)^T; ValueError unless every kappa_j is positive.

    Positive-definite in exact arithmetic.  The label still comes from
    `classify_definiteness`, so weights of very different sizes can read singular.
    """
    if kappa.dimension != system.dimension:
        raise ValueError("kappa dimension does not match system")
    _require_finite(kappa.values, "kappa")
    if np.any(kappa.values <= 0):
        raise ValueError("kappa must be strictly positive")
    with np.errstate(over="ignore"):  # inf entries fail classify_definiteness
        matrix = (system.ketkets * kappa.values[None, :]) @ system.ketkets.T
        matrix = 0.5 * (matrix + matrix.T)
    return MetricOperator.from_matrix(matrix, "kappa-family")


def exceptional_kappa(system: BiorthogonalSystem) -> KappaVector:
    """The weights kappa_j = 1/n_j at which the metric collapses onto Q."""
    return KappaVector(system.dimension, 1.0 / system.q_norms)


def charge_operator(q: np.ndarray, theta: MetricOperator) -> ChargeOperator:
    """C = Q^{-1} Theta with Q = diag(q), the factor in Theta = Q C.

    ValueError unless q is 1-D, finite and strictly positive, Theta holds finite
    numbers, and C is finite.
    """
    q = _as_real(q, "q")
    if q.ndim != 1 or np.shape(theta.matrix) != (q.size, q.size):
        raise ValueError("dimension mismatch between Q and theta")
    _require_finite(q, "q")
    if np.any(q <= 0):
        raise ValueError("q must be strictly positive")
    _require_finite(theta.matrix, "theta")
    with np.errstate(over="ignore"):
        charge = theta.matrix / q[:, None]
    _require_finite(charge, "the charge operator")
    return ChargeOperator(theta.dimension, charge)


def _relative_max(residual: np.ndarray, scale) -> float:
    """max|residual| / scale, and 0 for a zero residual (whose scale may be 0)."""
    largest = np.max(np.abs(residual))
    return float(largest / scale) if largest else 0.0


def _hamiltonian_residual(H: LatticeHamiltonian, theta: MetricOperator) -> float:
    """`observables.dieudonne_residual` of the dense H against theta, from the two bands of H.

    (H^T Theta)_{ij} = u_{i-1} Theta_{i-1,j} + l_i Theta_{i+1,j} and
    (Theta H)_{ij} = Theta_{i,j-1} u_{j-1} + Theta_{i,j+1} l_j, with u and l
    the super- and subdiagonal of H: O(N^2) in place of two dense products.
    NaN or inf in Theta gives a NaN residual, which no `<=` gate passes.
    """
    matrix = _as_real(theta.matrix, "theta")
    if matrix.shape != (H.dimension, H.dimension):
        raise ValueError("dimension mismatch between H and theta")
    up, down = H.superdiagonal, H.subdiagonal
    residual = np.zeros_like(matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        residual[1:] += up[:, None] * matrix[:-1]
        residual[:-1] += down[:, None] * matrix[1:]
        residual[:, 1:] -= matrix[:, :-1] * up
        residual[:, :-1] -= matrix[:, 1:] * down
        scale = np.max(np.abs(matrix)) * np.abs(np.r_[up, down]).max(initial=0.0)
        return _relative_max(residual, scale)


def kappa_from_metric(system: BiorthogonalSystem, theta: MetricOperator) -> KappaVector:
    """Recover the weights of a family member: kappa_j = psi_j^T Theta psi_j / n_j^2.

    Rejects matrices outside the family, for which the projection would be
    meaningless: unless dieudonne_residual(H, theta) <= 1e-10, which is
    max|H^T Theta - Theta H| <= 1e-10 max|Theta| because max|H| = H[0, 1] = 1
    for N >= 2 (at N = 1 both residuals are 0).  A Theta with NaN or inf
    entries fails the gate.
    """
    if theta.dimension != system.dimension:
        raise ValueError("dimension mismatch")
    if not _hamiltonian_residual(build_hamiltonian(system.dimension), theta) <= INTERTWINING_TOL:
        raise ValueError("matrix does not intertwine with H: not in the metric family")
    quad = np.einsum("ij,ij->j", system.kets, theta.matrix @ system.kets)
    return KappaVector(system.dimension, quad / system.q_norms**2)


def tridiagonal_metric(N: int, alpha: float) -> MetricOperator:
    """Theta(alpha) = Q + alpha T for the unique tridiagonal-ansatz couplings, at one real alpha."""
    N = _require_size(N, 2)
    q, offdiagonal = _slice(N, alpha)
    if offdiagonal.ndim != 1:
        raise ValueError(f"alpha must be one number, not an array of shape {offdiagonal.shape[1:]}")
    definiteness = str(tridiagonal_definiteness(q, offdiagonal))
    return MetricOperator(N, _slice_matrix(q, offdiagonal), definiteness, "tridiagonal-family")
