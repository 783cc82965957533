"""Legendre polynomial evaluation and root finding.

Everything downstream (Hamiltonian spectrum, eigenvectors, metrics) is generated by the
Legendre three-term recurrence, implemented once here as the generator `_legendre_values`.
Roots are found by bracketed Newton and certified by Sturm counts on the symmetrized Jacobi
matrix of the recurrence, whose eigenvalues are exactly the roots: the package's one
certificate, for `roots_P` and for the horizon's largest root, on the LDL^T pivot kernel of
`tridiagonal`, which shares no code with Newton.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._size import _require_size
from .tridiagonal import sturm_count

ROOT_TOL = 1e-14
CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RootSet:
    """All real roots of P_N, sorted ascending."""

    roots: np.ndarray


def _legendre_values(x):
    """P_0(x), P_1(x), ... at a float or an array of points; each computed when asked for."""
    p_prev, p = np.ones_like(x), x
    yield p_prev
    for k in itertools.count(1):
        yield p
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)


def _eval_pair(n: int, x):
    """(P_n, P_{n-1}) at a float or an array of points, two values held at a time."""
    p_prev, p = deque(itertools.islice(_legendre_values(x), n + 1), maxlen=2)
    return p, p_prev


def _derivative_from_pair(n: int, x, p, p_prev):
    return n * (x * p - p_prev) / (x * x - 1.0)


def _newton_in_brackets(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """All roots of P_n, one per bracket, Newton with bisection fallback.

    A Newton step is kept when it lands strictly inside the updated bracket
    or stays at the iterate x, as in the safeguarded Newton `rtsafe` (Press
    et al., *Numerical Recipes*, sec. 9.4).  Each iteration first moves a
    bracket end onto x, so a converged step (x_new == x), or a root hit
    exactly, sits on a bracket end; rejecting it would start a bisection
    that crawls back to ROOT_TOL in about 40 halvings.  A step that leaves
    the open bracket, or is NaN, still falls back to the midpoint, so no
    iterate reaches +-1, where `_derivative_from_pair` divides by zero.
    """
    flo, _ = _eval_pair(n, lo)
    x = 0.5 * (lo + hi)
    active = np.ones(len(x), dtype=bool)
    for _ in range(200):
        f, f_prev = _eval_pair(n, x)
        same_side = (f > 0) == (flo > 0)
        lo = np.where(active & same_side, x, lo)
        flo = np.where(active & same_side, f, flo)
        hi = np.where(active & ~same_side, x, hi)
        x_new = x - f / _derivative_from_pair(n, x, f, f_prev)
        out = ~(((lo < x_new) & (x_new < hi)) | (x_new == x))
        x_new = np.where(out, 0.5 * (lo + hi), x_new)
        converged = np.abs(x_new - x) <= ROOT_TOL
        x = np.where(active, x_new, x)
        active &= ~converged
        if not active.any():
            break
    else:
        raise RuntimeError(f"root iteration for P_{n} failed to converge")
    # two unguarded polish steps push the residual to evaluation noise
    for _ in range(2):
        f, f_prev = _eval_pair(n, x)
        x = x - f / _derivative_from_pair(n, x, f, f_prev)
    return x


def _largest_root(N: int) -> float:
    """The largest root of P_N by Newton's method from the right.

    P_N has only real roots, so it is increasing and convex to the right of
    its largest root, and Newton iterates started there decrease
    monotonically towards it.  The first step from x = 1, where P_N = 1 and
    P_N' = N(N+1)/2, lands at 1 - 2/(N(N+1)); the iteration stops at the
    first step that does not decrease, which is where rounding takes over.
    """
    x = 1.0 - 2.0 / (N * (N + 1))
    while True:
        p, p_prev = _eval_pair(N, x)
        x_new = float(x - p / _derivative_from_pair(N, x, p, p_prev))
        if not x_new < x:
            return x
        x = x_new


# roots per degree, built once and reused; entries are immutable arrays
_root_cache: dict[int, np.ndarray] = {1: np.zeros(1)}
_root_cache[1].setflags(write=False)


def _jacobi(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero diagonal and couplings (k+1)/sqrt((2k+1)(2k+3)) of the symmetrized Jacobi matrix
    J = Q^{1/2} H Q^{-1/2}, whose eigenvalues are exactly the roots of P_N (Golub & Welsch 1969)."""
    k = np.arange(N - 1, dtype=float)
    return np.zeros(N), (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))


def _certify_roots(roots: np.ndarray, N: int) -> None:
    """Raise unless the sorted roots are the top len(roots) eigenvalues of J (`_jacobi(N)`) to
    CROSS_CHECK_TOL: every root of P_N for `roots_P`, the largest alone for `horizons`.

    Root j (0-based among the N) is certified when the Sturm counts on J at x_j -/+ delta,
    delta = CROSS_CHECK_TOL, are j and j + 1: the j-th eigenvalue is within delta of x_j, and
    no other is.  The eigenvalues lie far more than 2 delta apart, so this is the sorted match
    max|roots - eig(J)| <= delta, up to the count's own error, 1.1e-15 max|J| < 1.1e-15.  J and
    the shifts need no rescale: J's couplings lie in [0.5, 0.58] and the shifts' moduli between
    1e-12 and 1 + 1e-12, inside the [2^-250, 2^250] that `sturm_count` asks of its input.
    """
    expected = np.arange(N - len(roots), N)
    shifts = np.concatenate((roots - CROSS_CHECK_TOL, roots + CROSS_CHECK_TOL))
    below, through = sturm_count(*_jacobi(N), shifts).reshape(2, -1)
    failed = np.flatnonzero((below != expected) | (through != expected + 1))
    if len(failed):
        i, j = failed[0], expected[failed[0]]
        raise RuntimeError(
            f"Sturm certificate of the roots of P_{N} failed at root {j}: "
            f"{below[i]} Jacobi eigenvalues below x_{j} - {CROSS_CHECK_TOL:g} and "
            f"{through[i]} below x_{j} + {CROSS_CHECK_TOL:g}, expected {j} and {j + 1}"
        )


def roots_P(N: int) -> RootSet:
    """All N roots of P_N, built degree by degree from interlacing brackets.

    The result is symmetrized about 0 (the exact middle root of odd degrees
    is pinned to 0.0) and certified on every call by Sturm counts on the
    Jacobi matrix (`_certify_roots`); a failed certificate signals a logic
    error and raises RuntimeError.
    """
    N = _require_size(N)
    start = max(n for n in _root_cache if n <= N)
    roots = _root_cache[start]
    for n in range(start + 1, N + 1):
        brackets = np.concatenate(([-1.0], roots, [1.0]))
        roots = _newton_in_brackets(n, brackets[:-1], brackets[1:])
        roots = 0.5 * (roots - roots[::-1])
        if n % 2 == 1:
            roots[n // 2] = 0.0
        roots.setflags(write=False)
        _root_cache[n] = roots
    _certify_roots(roots, N)
    return RootSet(roots)
