from fractions import Fraction

import numpy as np
import pytest

from qtlattice import (
    build_metric_Q,
    exact_exceptional_identity,
    exact_intertwining_check,
    exact_intertwining_check_factorial,
    exact_tridiagonal_solve,
)
from qtlattice.exact import factorial_diagonal, rational_hamiltonian, rational_metric_Q
from qtlattice.metrics import tridiagonal_family


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
    entries = [factorial_diagonal(3)[i, i] for i in range(3)]
    assert entries == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 4)]
    derived = [rational_metric_Q(3)[i, i] for i in range(3)]
    assert derived == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]


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


def test_tridiagonal_solve_matches_float_family():
    couplings = exact_tridiagonal_solve(6)
    np.testing.assert_array_equal(
        tridiagonal_family(6).coupling_base, [float(c) for c in couplings]
    )


# 9 and 12 lie beyond the size at which a 200-digit numeric fallback once took over
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 9, 12])
def test_exceptional_identity(N):
    assert exact_exceptional_identity(N)


def test_rational_hamiltonian_matches_float():
    exact_H = rational_hamiltonian(4)
    from qtlattice import build_hamiltonian

    dense = build_hamiltonian(4).to_dense()
    for i in range(4):
        for j in range(4):
            assert dense[i, j] == float(exact_H[i, j])


def test_rational_Q_matches_float():
    exact_Q = rational_metric_Q(5)
    entries = build_metric_Q(5).entries
    for i in range(5):
        assert entries[i] == float(exact_Q[i, i])


def test_cost_guards():
    with pytest.raises(ValueError):
        exact_intertwining_check(13)
    with pytest.raises(ValueError):
        exact_tridiagonal_solve(1)
