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
`_slice` gives its q = `build_metric_Q(N)` and alpha t, and `_slice_matrix` the
dense Theta(alpha) or a stack of them; `horizons` uses these too.  Each entry
point reads its real input once through `_size._as_real`, and Theta (when a
`MetricOperator` is built) and K through `_as_symmetric`, by `_asymmetry`,
max|M - M^H|: the one Hermiticity residual of the package.

Definiteness is one rule, thr = 1e-12 max|Theta| (`_largest`): no
eigenvalue below +thr is positive-definite; none below -thr, or thr = 0,
singular; otherwise indefinite.  A Theta with no nonzero entry off its three
central diagonals (the slice, Q) counts its eigenvalues below +-thr in O(N) by
Sturm counts (`sturm_count`, the LDL^T pivot kernel that also certifies the
Legendre roots, read by Sylvester's law of inertia).  Any other Theta (the kappa
family) asks by Cholesky of Theta - thr I and, where that fails, of Theta + thr I:
each factor exists exactly when no eigenvalue lies below the shift.

Error model of thr.  The computed Sturm pivots are the exact pivots of a matrix
whose entries carry relative errors of at most 2.5 eps (Kahan; Demmel, Applied
Numerical Linear Algebra, lemma 5.4): each count is exact for eigenvalues moved
by at most 5 eps max|Theta|, three orders of magnitude inside thr.  A Cholesky
factorization that completes is exact for a matrix within O(N^2 eps ||Theta||_2)
of the shifted Theta, and one completes where every eigenvalue exceeds the shift
by a bound of that order (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 10).  So on either path a label can differ from exact
arithmetic only for an eigenvalue that close to +-thr.  Both models need normal
arithmetic, so where max|Theta| leaves [2^-250, 2^250] both paths first scale each Theta
by its own exact power of two (`_size._rescaled`) and read thr after it.  thr has no
floor and is 0 only for a zero Theta, which reads singular, so c Theta has the label
of Theta for every c > 0 at which c Theta is exact, subnormal entries included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._size import _as_real, _require_finite, _require_size, _require_square, _rescaled
from .lattice import BiorthogonalSystem, LatticeHamiltonian, build_metric_Q
from .tridiagonal import sturm_count

SYMMETRY_TOL = 1e-12
PIVOT_TOL = 1e-12
INTERTWINING_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KappaVector:
    """Weights selecting one metric of the quasi-Hermitian family, `dimension` (an int) of them."""

    dimension: int
    values: np.ndarray

    def __post_init__(self):
        values = _as_real(self.values, "kappa", 1)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dimension", _require_size(self.dimension))
        if values.shape != (self.dimension,):
            raise ValueError("kappa length does not match dimension")


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """A symmetric candidate metric, labelled by its matrix alone.  The matrix is checked once,
    when built: real, finite, nonempty, square and symmetric, else a ValueError naming theta;
    `dimension` and `definiteness` (from `classify_definiteness`) are derived from it."""

    dimension: int = field(init=False)
    matrix: np.ndarray
    definiteness: str = field(init=False)  # positive-definite | singular | indefinite
    provenance: str = "external"  # diagonal-Q | kappa-family | tridiagonal-family | external

    def __post_init__(self):
        matrix, largest = _as_symmetric(self.matrix, "theta")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dimension", len(matrix))
        object.__setattr__(self, "definiteness", classify_definiteness(matrix, largest))


@dataclass(frozen=True, eq=False)
class ChargeOperator:
    """The factor C in the decomposition Theta = Q C; `dimension` is derived from it."""

    dimension: int = field(init=False)
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dimension", len(self.matrix))


def _slice(N: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """q and alpha t of Theta(alpha) = Q + alpha T, t_n = n + 1 on axis 0 before the axes of
    alpha, a number or array that has passed `_as_real`."""
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


def _asymmetry(M: np.ndarray, scale=1.0) -> float:
    """max|M - M^H| / scale by 64-row blocks of the upper triangle (|a - conj b| = |b - conj a|),
    no N x N temporary: 0 for a zero difference (any scale), inf for an overflow, NaN for a NaN."""
    top = np.float64(0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # np.maximum: Python's max drops a NaN
        for i in range(0, len(M), 64):
            top = np.maximum(top, np.abs(M[i : i + 64, i:] - M[i:, i : i + 64].conj().T).max())
        return float(top / scale) if top else 0.0


def _largest(M: np.ndarray) -> float:
    """max|M|, the scale of every gate, with no N x N temporary: max(max M, -min M) for a real M,
    by 64-row blocks as `_asymmetry` for a complex one (inf where a modulus overflows)."""
    if not np.iscomplexobj(M):
        return float(max(M.max(), -M.min()))
    top = np.float64(0.0)
    with np.errstate(over="ignore"):
        for i in range(0, len(M), 64):
            top = np.maximum(top, np.abs(M[i : i + 64]).max())
    return float(top)


def _as_symmetric(value, what: str) -> tuple[np.ndarray, float]:
    """Gate of Theta, K: real, finite, nonempty, square, `_asymmetry <= 1e-12 max|M|`; M, max|M|."""
    M = _as_real(value, what, 2)
    _require_square(M, what)
    if _asymmetry(M, largest := _largest(M)) > SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric within tolerance")
    return M, largest


def tridiagonal_definiteness(diagonal, offdiagonal) -> np.ndarray:
    """Definiteness labels of symmetric tridiagonal matrices by the one rule of
    `classify_definiteness`, from one `sturm_count` call at +-thr (at thr = 0 the counts would
    take the zero pivots of a zero Theta as negative).  One diagonal, batched on the axes of the
    off-diagonal after the first; returns a string array of the batch shape.  thr is 1e-12
    max|Theta| read after `_rescaled` scales each matrix by its own power of two, so no label
    depends on the other matrices of its batch."""
    largest = np.abs(offdiagonal).max(axis=0, initial=np.abs(diagonal).max())
    column = np.reshape(diagonal, (-1,) + (1,) * np.ndim(largest))  # each factor scales its matrix
    diagonal, offdiagonal, largest = _rescaled(largest, column, offdiagonal, largest)
    shifts = np.multiply.outer((1.0, -1.0), PIVOT_TOL * largest)  # +thr and -thr
    above, below = sturm_count(diagonal, offdiagonal, shifts)
    positive, singular = above == 0, (below == 0) | (largest == 0)
    return np.where(positive, "positive-definite", np.where(singular, "singular", "indefinite"))


def classify_definiteness(matrix: np.ndarray, largest: float) -> str:
    """Label a matrix by thr = 1e-12 `largest`, the max|Theta| that `_as_symmetric` returns with
    it: no eigenvalue below +thr is positive-definite; none below -thr, or thr = 0, singular; else
    indefinite.  With no nonzero entry off its three central diagonals, by the Sturm counts of
    `tridiagonal_definiteness` on its diagonal and lower band; any other by Cholesky."""
    band = [np.diagonal(matrix, k) for k in (-1, 0, 1)]
    if np.count_nonzero(matrix) == sum(map(np.count_nonzero, band)):
        return str(tridiagonal_definiteness(band[1], band[0]))
    return _cholesky_definiteness(matrix, largest)


def _cholesky_definiteness(matrix: np.ndarray, largest: float) -> str:
    """The rule of `classify_definiteness` by Cholesky of Theta - thr I, then of Theta + thr I,
    each formed in one copy of Theta (at thr = 0 the second repeats the first).  Theta is first
    scaled by `_rescaled`, and thr read after it, so thr underflows only for a zero Theta, no
    factor is formed in subnormal arithmetic and no shifted diagonal entry overflows."""
    matrix, largest = _rescaled(largest, matrix, largest)
    threshold = PIVOT_TOL * largest
    for shift, label in ((-threshold, "positive-definite"), (threshold, "singular")):
        shifted = matrix.copy()
        shifted.flat[:: len(matrix) + 1] += shift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        return label
    return "indefinite" if threshold else "singular"


def metric_from_kappa(system: BiorthogonalSystem, kappa: KappaVector) -> MetricOperator:
    """Theta = sum_j (Q psi_j) kappa_j (Q psi_j)^T; ValueError unless every kappa_j is positive.

    Formed as B B^T, B = Q S diag(sqrt kappa): one `syrk`, exactly symmetric.  Positive-definite
    in exact arithmetic, but weights of very different sizes can read singular.
    """
    if kappa.dimension != system.dimension:
        raise ValueError("kappa dimension does not match system")
    if np.any(kappa.values <= 0):
        raise ValueError("kappa must be strictly positive")
    with np.errstate(over="ignore"):  # inf entries fail the gate of MetricOperator
        matrix = system.ketkets * np.sqrt(kappa.values)  # B, dropped once B B^T is formed
        matrix = matrix @ matrix.T
    return MetricOperator(matrix, "kappa-family")


def exceptional_kappa(system: BiorthogonalSystem) -> KappaVector:
    """The weights kappa_j = 1/n_j at which the metric collapses onto Q."""
    return KappaVector(system.dimension, 1.0 / system.q_norms)


def charge_operator(q: np.ndarray, theta: MetricOperator) -> ChargeOperator:
    """C = Q^{-1} Theta with Q = diag(q), the factor in Theta = Q C.

    ValueError unless q is 1-D, finite and strictly positive, Theta is of its
    size, and C is finite.
    """
    q = _as_real(q, "q", 1)
    if theta.dimension != q.size:
        raise ValueError("dimension mismatch between Q and theta")
    if np.any(q <= 0):
        raise ValueError("q must be strictly positive")
    with np.errstate(over="ignore"):
        charge = theta.matrix / q[:, None]
    _require_finite(charge, "the charge operator")
    return ChargeOperator(charge)


def _hamiltonian_residual(H: LatticeHamiltonian, theta: MetricOperator) -> float:
    """`observables.dieudonne_residual` of the dense H against theta, from the two bands of H.

    `_asymmetry` of (Theta H)_{ij} = Theta_{i,j-1} u_{j-1} + Theta_{i,j+1} l_j, with u and l the
    super- and subdiagonal of H: two band products, O(N^2) in place of a dense product, the second
    added by 64-row blocks (peak 1.13 arrays of 8 N^2 bytes at N = 1024).  ValueError unless Theta
    is of the size of H; an overflow reads inf or NaN, which no `<=` gate passes.
    """
    if theta.dimension != H.dimension:
        raise ValueError("dimension mismatch between H and theta")
    matrix, up, down = theta.matrix, H.superdiagonal, H.subdiagonal
    product = np.zeros_like(matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(matrix[:, :-1], up, out=product[:, 1:])
        for i in range(0, len(matrix), 64):
            product[i : i + 64, :-1] += matrix[i : i + 64, 1:] * down
    return _asymmetry(product, _largest(matrix) * np.abs(np.r_[up, down]).max(initial=0.0))


def kappa_from_metric(system: BiorthogonalSystem, theta: MetricOperator) -> KappaVector:
    """Recover the weights of a family member: kappa_j = psi_j^T Theta psi_j / n_j^2.

    Rejects matrices outside the family, for which the projection would be
    meaningless: unless dieudonne_residual(H, theta) <= 1e-10, which is
    max|H^T Theta - Theta H| <= 1e-10 max|Theta| because max|H| = H[0, 1] = 1
    for N >= 2 (at N = 1 both residuals are 0), and of the size of the system.
    """
    if not _hamiltonian_residual(LatticeHamiltonian(system.dimension), theta) <= INTERTWINING_TOL:
        raise ValueError("matrix does not intertwine with H: not in the metric family")
    quad = np.einsum("ij,ij->j", system.kets, theta.matrix @ system.kets)
    return KappaVector(system.dimension, quad / system.q_norms**2)


def tridiagonal_metric(N: int, alpha: float) -> MetricOperator:
    """Theta(alpha) = Q + alpha T for the unique tridiagonal-ansatz couplings, at one real alpha."""
    N = _require_size(N, 2)
    q, offdiagonal = _slice(N, _as_real(alpha, "alpha", 0))
    return MetricOperator(_slice_matrix(q, offdiagonal), "tridiagonal-family")
