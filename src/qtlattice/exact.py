"""Exact-arithmetic verification of the model's algebraic identities.

Small-N ground truth on `fractions.Fraction` (matrices as lists of rows,
polynomials as coefficient lists from the constant term up): the intertwining
relation for the diagonal metric, the unique tridiagonal couplings and the
exceptional-weights identity (Christoffel-Darboux).  The published factorial
diagonal fails the intertwining relation from the third site on; n + 1/2 holds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from ._size import _require_size

INTERTWINING_N_MAX = 12


def rational_hamiltonian(N: int) -> list[list[Fraction]]:
    """H as rows of rationals: superdiag (n+1)/(2n+1), subdiag (n+1)/(2n+3)."""
    N = _require_size(N)
    H = [[Fraction(0)] * N for _ in range(N)]
    for n in range(N - 1):
        H[n][n + 1] = Fraction(n + 1, 2 * n + 1)
        H[n + 1][n] = Fraction(n + 1, 2 * n + 3)
    return H


def rational_metric_Q(N: int) -> list[Fraction]:
    """The diagonal n + 1/2 of Q."""
    return [Fraction(2 * n + 1, 2) for n in range(_require_size(N))]


def factorial_diagonal(N: int) -> list[Fraction]:
    """The published closed-form diagonal, entries (n + 1/2)/n!.

    Matches the recursion-derived metric at the first two sites only; kept
    so the discrepancy is documented by an explicit failing check.
    """
    return [Fraction(2 * n + 1, 2 * factorial(n)) for n in range(_require_size(N))]


def _commutator_entry(H, theta, i: int, j: int) -> Fraction:
    """Entry (i, j) of H^T Theta - Theta H for tridiagonal H."""
    ks = {k for k in (i - 1, i + 1, j - 1, j + 1) if 0 <= k < len(H)}  # H[k][i] or H[k][j] != 0
    return sum((H[k][i] * theta[k][j] - theta[i][k] * H[k][j] for k in ks), Fraction(0))


def _gauss_jordan(rows: list[list[Fraction]], n: int) -> list[Fraction]:
    """The unique x with row[:n] . x = row[n] for every row, by exact elimination."""
    rows, rank = list(rows), 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot], rows[rank] = rows[rank], [v / rows[pivot][col] for v in rows[pivot]]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                rows[r] = [v - row[col] * h for v, h in zip(row, rows[rank])]
        rank += 1
    if any(row[n] for row in rows[rank:]):
        raise ValueError("inconsistent system")
    if rank < n:
        raise ValueError("underdetermined system")
    return [row[n] for row in rows[:n]]


def _intertwining_residual(N: int, diagonal_metric):
    if not 1 <= _require_size(N) <= INTERTWINING_N_MAX:
        raise ValueError(f"N must be in [1, {INTERTWINING_N_MAX}]")
    H, q = rational_hamiltonian(N), diagonal_metric(N)
    Q = [[q[i] * (i == j) for j in range(N)] for i in range(N)]
    witness = max(abs(_commutator_entry(H, Q, i, j)) for i in range(N) for j in range(N))
    return witness == 0, witness


def exact_intertwining_check(N: int):
    """Exact check of H^T Q = Q H with Q = diag(n + 1/2): (passes, witness).

    The witness is the largest |entry| of the residual, a Fraction, 0 on success.
    """
    return _intertwining_residual(N, rational_metric_Q)


def exact_intertwining_check_factorial(N: int):
    """Same check against the published factorial diagonal (fails for N >= 3)."""
    return _intertwining_residual(N, factorial_diagonal)


def exact_tridiagonal_solve(N: int) -> list[Fraction]:
    """Couplings t = (1, 2, ..., N-1) of the unique tridiagonal metric with diagonal Q, t_0 = 1.

    With Theta = Q + sum_k t_k T_k (T_k has ones at (k, k+1) and (k+1, k)),
    H^T Theta - Theta H is linear in t, antisymmetric and pentadiagonal:
    its entries one and two above the diagonal are the equations.
    """
    if not 2 <= _require_size(N) <= INTERTWINING_N_MAX:
        raise ValueError(f"N must be in [2, {INTERTWINING_N_MAX}]")
    H, q = rational_hamiltonian(N), rational_metric_Q(N)
    Q = [[q[i] * (i == j) for j in range(N)] for i in range(N)]
    T = [[[int({i, j} == {k, k + 1}) for j in range(N)] for i in range(N)] for k in range(N - 1)]
    band = [(i, j) for i in range(N) for j in range(i + 1, min(N, i + 3))]
    rows = [[_commutator_entry(H, Tk, i, j) for Tk in T] + [-_commutator_entry(H, Q, i, j)]
            for i, j in band]
    t0_is_1 = [Fraction(k == 0) for k in range(N - 1)] + [Fraction(1)]
    return _gauss_jordan([*rows, t0_is_1], N - 1)


def _negative_pivots(diagonal, squared, shift) -> int:
    """Eigenvalues below `shift` of the symmetric tridiagonal matrix with `diagonal` and squared
    couplings `squared` (rationals: Fractions, ints, or floats read exactly), by Sylvester's law
    of inertia on the LDL^T pivots d_k = a_k - shift - b_{k-1}^2 / d_{k-1} in exact arithmetic.

    The exact counterpart of `tridiagonal.sturm_count`, sharing no code with it.  A zero pivot
    counts as negative and continues as an infinitesimal -eps, as there: the next pivot is then
    +infinity where its coupling is nonzero (not counted, and the one after it is a_k - shift),
    so an eigenvalue at the shift itself counts as below it.
    """
    count, pivot, shift = 0, Fraction(1), Fraction(shift)
    for a, b2 in zip(diagonal, [0, *squared]):
        if pivot is None:  # after +infinity
            pivot = Fraction(a) - shift
        elif pivot == 0:  # after -eps
            pivot = None if b2 else Fraction(a) - shift
        else:
            pivot = Fraction(a) - shift - Fraction(b2) / pivot
        count += pivot is not None and pivot <= 0
    return count


def exact_exceptional_identity(N: int) -> bool:
    """Verify sum_j psi_j psi_j^T Q / n_j = I exactly, q from `rational_metric_Q`.

    The identity reads S D^{-1} S^T Q = I, with S the kets and D = diag(n_j).  S is
    invertible, as the roots of P_N are distinct, so it holds iff S^T Q S is diagonal:
    iff K(x, y) = sum_{c<N} q_c P_c(x) P_c(y) vanishes at every pair of distinct roots,
    iff (x - y) K lies in the ideal of P_N(x) and P_N(y) (radical: P_N is squarefree).
    Only x K and y K reach degree N, so the normal form of (x - y) K modulo that ideal
    is (x - y) K - c (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)), c = q_{N-1} lc(P_{N-1}) /
    lc(P_N) with lc the leading coefficient; the identity holds iff it is zero.  For
    q = n + 1/2 this is Christoffel-Darboux (Szego, Orthogonal Polynomials, 3.2).
    """
    if not 1 <= _require_size(N) <= INTERTWINING_N_MAX:
        raise ValueError(f"N must be in [1, {INTERTWINING_N_MAX}]")
    P, q = [[Fraction(1)], [Fraction(0), Fraction(1)]], rational_metric_Q(N)
    for k in range(1, N):  # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
        P.append([((2 * k + 1) * x - k * y) / (k + 1)
                  for x, y in zip([0, *P[k]], [*P[k - 1], 0, 0])])
    c = q[N - 1] * P[N - 1][-1] / P[N][-1]
    F = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]  # F[i][j]: the coefficient of x^i y^j
    for k in range(N):  # (x - y) K
        for (i, a), (j, b) in product(enumerate(P[k]), repeat=2):
            F[i + 1][j] += q[k] * a * b
            F[i][j + 1] -= q[k] * a * b
    # minus c (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y))
    for (i, a), (j, b) in product(enumerate(P[N]), enumerate(P[N - 1])):
        F[i][j] -= c * a * b
        F[j][i] += c * a * b
    return not any(any(row) for row in F)
