from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from conftest import dense_hamiltonian

from qtlattice import (
    build_metric_Q,
    exact,
    exact_exceptional_identity,
    exact_intertwining_check,
    exact_intertwining_check_factorial,
    exact_tridiagonal_solve,
    hidden_horizon_scan,
    horizon_gamma,
    roots_P,
    tridiagonal_metric,
)
from qtlattice.exact import (
    _gauss_jordan,
    _negative_pivots,
    factorial_diagonal,
    rational_hamiltonian,
    rational_metric_Q,
)
from qtlattice.legendre import _jacobi
from qtlattice.metrics import _slice


@pytest.mark.parametrize("N", range(1, 9))
def test_intertwining_exact(N):
    ok, witness = exact_intertwining_check(N)
    assert ok
    assert witness == 0


def test_intertwining_witness_nonzero_for_wrong_metric():
    ok, witness = exact_intertwining_check_factorial(3)
    assert not ok
    assert witness > 0


def test_factorial_diagonal_matches_published_first_values():
    # the published closed form agrees with the recursion-derived metric at
    # the first two sites (1/2, 3/2) and departs at the third (5/4 vs 5/2)
    assert factorial_diagonal(3) == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 4)]
    assert rational_metric_Q(3) == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]


@pytest.mark.xfail(
    reason="the published factorial closed form for the diagonal metric does "
    "not satisfy the intertwining relation beyond the second site",
    strict=True,
)
def test_published_factorial_diagonal_intertwines_at_N3():
    ok, _ = exact_intertwining_check_factorial(3)
    assert ok


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_tridiagonal_couplings(N):
    assert exact_tridiagonal_solve(N) == [Fraction(k) for k in range(1, N)]


@pytest.mark.parametrize("N", range(2, 13))
def test_tridiagonal_solve_matches_sympy_linsolve(N):
    H = sp.zeros(N, N)
    for n in range(N - 1):
        H[n, n + 1] = sp.Rational(n + 1, 2 * n + 1)
        H[n + 1, n] = sp.Rational(n + 1, 2 * n + 3)
    t = sp.symbols(f"t0:{N - 1}")
    theta = sp.diag(*[sp.Rational(2 * n + 1, 2) for n in range(N)])
    for k in range(N - 1):
        theta[k, k + 1] = theta[k + 1, k] = t[k]
    (solution,) = sp.linsolve([*(H.T * theta - theta * H), t[0] - 1], t)
    assert exact_tridiagonal_solve(N) == [Fraction(str(value)) for value in solution]


def test_gauss_jordan_solves_or_names_the_failure():
    F = Fraction
    assert _gauss_jordan([[F(1), F(1), F(3)], [F(1), F(-1), F(1)]], 2) == [2, 1]
    with pytest.raises(ValueError, match="underdetermined"):
        _gauss_jordan([[F(1), F(1), F(2)], [F(2), F(2), F(4)]], 2)
    with pytest.raises(ValueError, match="inconsistent"):
        _gauss_jordan([[F(1), F(1), F(2)], [F(1), F(1), F(3)]], 2)


def test_tridiagonal_solve_matches_float_family():
    couplings = exact_tridiagonal_solve(6)
    np.testing.assert_array_equal(
        np.diag(tridiagonal_metric(6, 1.0).matrix, 1), [float(c) for c in couplings]
    )


# 9 and 12 lie beyond the size at which a 200-digit numeric fallback once took over
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 9, 12])
def test_exceptional_identity(N):
    assert exact_exceptional_identity(N)


def test_exceptional_identity_fails_for_the_factorial_diagonal(monkeypatch):
    # the published diagonal agrees with n + 1/2 at the first two sites only
    monkeypatch.setattr(exact, "rational_metric_Q", factorial_diagonal)
    assert exact_exceptional_identity(2)
    assert not exact_exceptional_identity(3)


_METRICS = {
    "n + 1/2": rational_metric_Q,
    "2 (n + 1/2)": lambda N: [2 * q for q in rational_metric_Q(N)],
    "factorial": factorial_diagonal,
    "one": lambda N: [Fraction(1)] * N,
    "last entry * 1001/1000": lambda N: [*rational_metric_Q(N)[:-1],
                                         rational_metric_Q(N)[-1] * Fraction(1001, 1000)],
}


@pytest.mark.parametrize(
    "metric, holds_up_to",
    [("n + 1/2", 8), ("2 (n + 1/2)", 8), ("factorial", 2), ("one", 1), ("last entry * 1001/1000", 1)],
)
def test_exceptional_identity_verdicts(monkeypatch, metric, holds_up_to):
    """The identity holds at N iff q is a multiple of n + 1/2 on its first N sites."""
    monkeypatch.setattr(exact, "rational_metric_Q", _METRICS[metric])
    assert [exact_exceptional_identity(N) for N in range(1, 9)] == [N <= holds_up_to for N in range(1, 9)]


def test_rational_hamiltonian_matches_float():
    exact_H = rational_hamiltonian(4)
    dense = dense_hamiltonian(4)
    for i in range(4):
        for j in range(4):
            assert dense[i, j] == float(exact_H[i][j])


def test_rational_Q_matches_float():
    exact_Q = rational_metric_Q(5)
    q = build_metric_Q(5)
    for i in range(5):
        assert q[i] == float(exact_Q[i])


def test_cost_guards():
    with pytest.raises(ValueError):
        exact_intertwining_check(13)
    with pytest.raises(ValueError):
        exact_tridiagonal_solve(1)
    # O(N^3) exact operations: 7 ms at N = 12
    with pytest.raises(ValueError, match=r"\[1, 12\]"):
        exact_exceptional_identity(13)


@pytest.mark.parametrize("N", range(1, 13))
def test_tridiagonal_couplings_are_twice_QH(N):
    """T = 2 Q H exactly, so Theta(alpha) = Q + alpha T = Q (I + 2 alpha H)."""
    q, H = rational_metric_Q(N), rational_hamiltonian(N)
    T = [[0] * N for _ in range(N)]
    for n in range(N - 1):
        T[n][n + 1] = T[n + 1][n] = n + 1
    assert [[2 * q[i] * H[i][j] for j in range(N)] for i in range(N)] == T


@pytest.mark.parametrize("bad", [2.5, True, 0])
@pytest.mark.parametrize(
    "call",
    [rational_hamiltonian, rational_metric_Q, factorial_diagonal, exact_intertwining_check,
     exact_tridiagonal_solve, exact_exceptional_identity],
)
def test_exact_sizes_must_be_positive_integers(call, bad):
    with pytest.raises(ValueError):
        call(bad)


def test_negative_pivots_count_the_eigenvalues_below_the_shift():
    """Zero pivots as in `sturm_count`: counted, then continued as -eps (eigenvalues of the
    three matrices (1 -+ sqrt 5)/2; in (-1, 0), (0, 1), (2, 3); and 0, 2, 2)."""
    assert _negative_pivots([0, 1], [1], 0) == 1
    assert _negative_pivots([1, 1, 0], [1, 1], 0) == 1
    assert _negative_pivots([1, 1, 2], [1, 0], 0) == 1
    assert [_negative_pivots([1, 1, 2], [1, 0], s) for s in (-1, 1, 3)] == [0, 1, 3]
    diagonal, offdiagonal = _jacobi(16)
    squared = [Fraction(b) ** 2 for b in offdiagonal.tolist()]
    counts = [_negative_pivots(diagonal.tolist(), squared, x) for x in (-0.99, -0.5, 0.0, 0.5, 0.99)]
    assert counts == [0, 5, 8, 11, 16]


def _exact_label(diagonal, squared, threshold):
    """The thr rule of `metrics.classify_definiteness` from exact counts at +-thr."""
    if _negative_pivots(diagonal, squared, threshold) == 0:
        return "positive-definite"
    return "singular" if _negative_pivots(diagonal, squared, -threshold) == 0 else "indefinite"


@pytest.mark.parametrize("N", [2, 8, 64])
def test_slice_labels_equal_exact_counts_at_the_threshold(N):
    """The labels of the slice, alone (`tridiagonal_metric`) and in one scan with alpha across the
    float range, equal the rule read from exact LDL^T counts on the same float entries,
    thr = 1e-12 max|Theta|: at 0, near +-gamma and at +-gamma.  Each alpha has the same exact
    label at thr (1 -+ 1e-3), so no label hinges on how thr rounds.  With one power of two for
    the whole batch, the points near gamma read positive-definite beside 2^1000."""
    gamma = horizon_gamma(N).gamma
    near = [sign * gamma * (1 + d) for sign in (1, -1) for d in (-1e-6, -1e-14, 0.0, 1e-14, 1e-6)]
    extreme = [2.0**1000, -(2.0**-1000), 1e300, -1e300, 1e-300, 3e200, -7e-200]
    alphas = np.array([0.0, *near, *extreme])
    q, offdiagonal = _slice(N, alphas)
    largest = np.maximum(q.max(), np.abs(offdiagonal).max(axis=0))
    diagonal = rational_metric_Q(N)
    expected = []
    for couplings, top in zip(offdiagonal.T.tolist(), largest.tolist()):
        squared = [Fraction(b) ** 2 for b in couplings]
        threshold = Fraction(1e-12) * Fraction(top)
        margins = (Fraction(999, 1000), Fraction(1001, 1000))
        labels = {_exact_label(diagonal, squared, threshold * margin) for margin in margins}
        assert len(labels) == 1  # clear of a tie at +-thr
        expected += labels
    assert expected[0] == "positive-definite" and set(expected[1:11]) >= {"singular", "indefinite"}
    assert hidden_horizon_scan(N, np.eye(N), alphas).definiteness == expected
    assert [tridiagonal_metric(N, alpha).definiteness for alpha in alphas] == expected


@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_roots_lie_within_one_ulp_of_the_exact_eigenvalues_of_J(N):
    """Exact LDL^T counts on J, squared couplings (k+1)^2/((2k+1)(2k+3)): below the float under
    root j lie j eigenvalues, and below the float over it j + 1, so the j-th eigenvalue is within
    one ulp of the root.  The runtime certificate proves 1e-12."""
    squared = [Fraction((k + 1) ** 2, (2 * k + 1) * (2 * k + 3)) for k in range(N - 1)]
    neighbours = (np.nextafter(roots_P(N).roots, bound).tolist() for bound in (-np.inf, np.inf))
    below, above = ([_negative_pivots([0] * N, squared, x) for x in xs] for xs in neighbours)
    assert below == list(range(N)) and above == list(range(1, N + 1))


@pytest.mark.parametrize("N", [2, 3, 12, 64, 256])
def test_gamma_is_bracketed_by_its_float_neighbours(N):
    """Theta(alpha), diagonal n + 1/2 and squared couplings (alpha (n + 1))^2, read exactly:
    positive-definite (no pivot at or below 0) at the float below gamma, and not at the float
    above it, so gamma is the exact horizon 1/(2 lambda_max(J)) faithfully rounded."""
    gamma = horizon_gamma(N).gamma
    diagonal = rational_metric_Q(N)

    def negative_pivots(alpha):
        alpha = Fraction(alpha)
        return _negative_pivots(diagonal, [(alpha * (n + 1)) ** 2 for n in range(N - 1)], 0)

    assert negative_pivots(np.nextafter(gamma, 0.0)) == 0
    assert negative_pivots(np.nextafter(gamma, 1.0)) >= 1
