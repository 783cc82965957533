"""Exact-arithmetic verification of the model's algebraic identities.

Small-N ground truth computed with sympy over the rationals (and, where
roots enter, over the quotient ring modulo the Legendre polynomial): the
intertwining relation for the diagonal metric, the unique tridiagonal
metric couplings, and the exceptional-weights identity.  The published
closed form for the diagonal metric entries (factorial denominators) fails
the intertwining relation from the third site on; the checks here document
that the recursion-derived entries n + 1/2 are the consistent ones.
"""

from __future__ import annotations

from .legendre import _require_size

__all__ = [
    "rational_hamiltonian",
    "rational_metric_Q",
    "factorial_diagonal",
    "exact_intertwining_check",
    "exact_intertwining_check_factorial",
    "exact_tridiagonal_solve",
    "exact_exceptional_identity",
]

# sympy is imported inside the functions that use it, so that importing the
# package does not pay for it unless an exact check runs.

INTERTWINING_N_MAX = 12


def rational_hamiltonian(N: int):
    """H as a sympy Matrix of rationals: superdiag (n+1)/(2n+1), subdiag (n+1)/(2n+3)."""
    import sympy as sp

    N = _require_size(N)
    H = sp.zeros(N, N)
    for n in range(N - 1):
        H[n, n + 1] = sp.Rational(n + 1, 2 * n + 1)
        H[n + 1, n] = sp.Rational(n + 1, 2 * n + 3)
    return H


def rational_metric_Q(N: int):
    """diag(n + 1/2) as a sympy Matrix of rationals."""
    import sympy as sp

    return sp.diag(*[sp.Rational(2 * n + 1, 2) for n in range(_require_size(N))])


def factorial_diagonal(N: int):
    """The published closed-form diagonal, entries (n + 1/2)/n!.

    Matches the recursion-derived metric at the first two sites only; kept
    so the discrepancy is documented by an explicit failing check.
    """
    import sympy as sp

    return sp.diag(*[sp.Rational(2 * n + 1, 2) / sp.factorial(n) for n in range(_require_size(N))])


def _intertwining_residual(N: int, diagonal_metric):
    if not 1 <= _require_size(N) <= INTERTWINING_N_MAX:
        raise ValueError(f"N must be in [1, {INTERTWINING_N_MAX}]")
    H, Q = rational_hamiltonian(N), diagonal_metric(N)
    witness = max(abs(e) for e in H.T * Q - Q * H)
    return witness == 0, witness


def exact_intertwining_check(N: int):
    """Exact check of H^T Q = Q H with Q = diag(n + 1/2).

    Returns (passes, witness) where witness is the largest residual entry,
    a sympy Rational (exactly 0 on success).
    """
    return _intertwining_residual(N, rational_metric_Q)


def exact_intertwining_check_factorial(N: int):
    """Same check against the published factorial diagonal (fails for N >= 3)."""
    return _intertwining_residual(N, factorial_diagonal)


def exact_tridiagonal_solve(N: int) -> list:
    """Couplings of the unique tridiagonal metric with diagonal Q and t_0 = 1.

    Solves H^T Theta = Theta H over the rationals for symmetric tridiagonal
    Theta with symbols t_0..t_{N-2} on its off-diagonals; the solution is
    t = (1, 2, ..., N-1) as sympy Integers.
    """
    import sympy as sp

    if not 2 <= _require_size(N) <= INTERTWINING_N_MAX:
        raise ValueError(f"N must be in [2, {INTERTWINING_N_MAX}]")
    H = rational_hamiltonian(N)
    t = sp.symbols(f"t0:{N - 1}")
    theta = rational_metric_Q(N)
    for k in range(N - 1):
        theta[k, k + 1] = theta[k + 1, k] = t[k]
    solutions = sp.linsolve([*(H.T * theta - theta * H), t[0] - 1], t)
    if solutions is sp.S.EmptySet:
        raise ValueError("inconsistent system")
    (solution,) = solutions
    if any(value.free_symbols for value in solution):
        raise ValueError("underdetermined system")
    return list(solution)


def _power_sums(poly, k_max: int) -> list:
    """Newton's identities: sums of k-th powers of the roots of poly."""
    import sympy as sp

    coeffs = poly.monic().all_coeffs()
    n = len(coeffs) - 1
    sums = [sp.Rational(n)]
    for k in range(1, k_max + 1):
        s = -k * coeffs[k] if k <= n else sp.Rational(0)
        for i in range(1, min(k, n) + 1):
            if k - i >= 1:
                s -= coeffs[i] * sums[k - i]
        sums.append(s)
    return sums


def _exceptional_identity_symbolic(N: int) -> bool:
    """Verify sum_j psi_j psi_j^T Q / n_j = I exactly.

    Entry (a, b) of the sum is sum over roots E of P_N of
    P_a(E) P_b(E) q_b / n(E) with n(E) = sum_c q_c P_c(E)^2.  The rational
    summand is reduced modulo P_N (via the modular inverse of n), after
    which the sum over roots is a combination of exact power sums.
    """
    import sympy as sp

    P = [sp.legendre_poly(k, polys=True) for k in range(N + 1)]
    q = [sp.Rational(2 * c + 1, 2) for c in range(N)]
    norm_poly = sum((P[c] * P[c]) * q[c] for c in range(N))
    p_N = P[N]
    norm_inverse = norm_poly.invert(p_N)
    sums = _power_sums(p_N, N)
    for a in range(N):
        for b in range(a, N):
            reduced = (P[a] * P[b] * q[b] * norm_inverse) % p_N
            coeffs = reduced.all_coeffs()
            degree = len(coeffs) - 1
            value = sum(coeffs[i] * sums[degree - i] for i in range(degree + 1))
            # entry (b, a) carries q_a instead of q_b: same sum up to a
            # nonzero factor, so checking one triangle suffices
            if value != (1 if a == b else 0):
                return False
    return True


def exact_exceptional_identity(N: int) -> bool:
    """Exact check that the exceptional weights reproduce the diagonal metric.

    Runs the symbolic modular-arithmetic route at every N >= 2; its cost
    grows with N (about 1 s at N = 24 and 4 s at N = 32).
    """
    if _require_size(N) == 1:
        return True
    return _exceptional_identity_symbolic(N)
