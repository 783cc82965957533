"""Exact-arithmetic verification of the model's algebraic identities.

Small-N ground truth on `fractions.Fraction`, with matrices as lists of rows
and polynomials as coefficient lists from the constant term up: the
intertwining relation for the diagonal metric, the unique tridiagonal
couplings and the exceptional-weights identity modulo P_N.  The published
factorial closed form for the diagonal metric fails the intertwining
relation from the third site on; the recursion-derived n + 1/2 is consistent.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._size import _require_size

__all__ = [
    "rational_hamiltonian",
    "rational_metric_Q",
    "factorial_diagonal",
    "exact_intertwining_check",
    "exact_intertwining_check_factorial",
    "exact_tridiagonal_solve",
    "exact_exceptional_identity",
]

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


def _times_modulo(a: list, b: list, m: list) -> list[Fraction]:
    """The remainder of a * b modulo m, as deg(m) coefficients."""
    d, r = len(m) - 1, [Fraction(0)] * max(len(a) + len(b) - 1, len(m) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] += x * y
    for top in range(len(r) - 1, d - 1, -1):
        factor = r[top] / m[d]
        for i in range(d + 1):
            r[top - d + i] -= factor * m[i]
    return r[:d]


def exact_exceptional_identity(N: int) -> bool:
    """Verify sum_j psi_j psi_j^T Q / n_j = I exactly, q from `rational_metric_Q`.

    Entry (a, b) is the sum over roots E of P_N of P_a(E) P_b(E) q_b / n(E),
    n(E) = sum_c q_c P_c(E)^2.  The summand is reduced modulo P_N, where 1/n
    is solved for by `_gauss_jordan`; the sum over roots of the remainder
    is a combination of power sums from Newton's identities.  Its cost grows
    about as N^5, so N is bounded like the other checks.
    """
    if not 1 <= _require_size(N) <= INTERTWINING_N_MAX:
        raise ValueError(f"N must be in [1, {INTERTWINING_N_MAX}]")
    P = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, N):  # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
        P.append([((2 * k + 1) * x - k * y) / (k + 1)
                  for x, y in zip([0, *P[k]], [*P[k - 1], 0, 0])])
    p_N, q = P[N], rational_metric_Q(N)
    squares = [_times_modulo(P[c], P[c], p_N) for c in range(N)]
    norm = [sum(q[c] * squares[c][i] for c in range(N)) for i in range(N)]
    columns = [_times_modulo([0] * k + [1], norm, p_N) for k in range(N)]  # x^k n modulo P_N
    inverse = _gauss_jordan([[*row, Fraction(i == 0)] for i, row in enumerate(zip(*columns))], N)
    monic, sums = [c / p_N[N] for c in reversed(p_N)], [Fraction(N)]
    for k in range(1, N):  # sums[k] = sum of E^k; monic[i] is the coefficient of x^(N - i)
        sums.append(-k * monic[k] - sum(monic[i] * sums[k - i] for i in range(1, k)))
    for a in range(N):
        weighted = _times_modulo(P[a], inverse, p_N)
        for b in range(a, N):
            remainder = _times_modulo(weighted, P[b], p_N)
            # entry (b, a) is this one times q_a / q_b: one triangle suffices
            if q[b] * sum(c * s for c, s in zip(remainder, sums)) != (1 if a == b else 0):
                return False
    return True
