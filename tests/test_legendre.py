import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlattice.legendre import (
    eval_P,
    eval_P_derivative,
    eval_P_table,
    jacobi_eigenvalues,
    roots_P,
)


def test_low_degree_values():
    assert eval_P(0, 0.7) == 1.0
    assert eval_P(1, 0.7) == 0.7
    assert eval_P(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_table_invariants():
    table = eval_P_table(6, 0.3)
    assert table[0] == 1.0
    assert table[1] == 0.3


def test_derivative_small_cases():
    assert eval_P_derivative(1, 0.3) == 1.0
    assert eval_P_derivative(2, 0.5) == pytest.approx(1.5, abs=1e-15)
    # oracle: P_3 = (5x^3 - 3x)/2, so P_3'(0) = -3/2
    assert eval_P_derivative(3, 0.0) == pytest.approx(-1.5, abs=1e-15)


def test_derivative_at_endpoints_uses_limit():
    for n in range(1, 8):
        assert eval_P_derivative(n, 1.0) == pytest.approx(n * (n + 1) / 2, rel=1e-14)
        assert eval_P_derivative(n, -1.0) == pytest.approx(
            n * (n + 1) / 2 * (-1) ** (n + 1), rel=1e-14
        )


def test_derivative_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(30):
        n = int(rng.integers(1, 12))
        x = float(rng.uniform(-0.95, 0.95))
        fd = (eval_P(n, x + h) - eval_P(n, x - h)) / (2 * h)
        assert eval_P_derivative(n, x) == pytest.approx(fd, abs=1e-7)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=29),
    x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_recurrence_residual(n, x):
    table = eval_P_table(n + 1, x)
    residual = abs((n + 1) * table[n + 1] - (2 * n + 1) * x * table[n] + n * table[n - 1])
    assert residual <= 1e-12 * max(1.0, abs(table[n + 1]))


def test_roots_trivial_cases():
    assert roots_P(1).roots.tolist() == [0.0]
    np.testing.assert_allclose(
        roots_P(2).roots, [-0.5773502691896258, 0.5773502691896258], atol=1e-15
    )


def test_roots_degree_five_against_jacobi_oracle():
    # expected values frozen from the independent 5x5 Jacobi eigensolve
    expected = jacobi_eigenvalues(5)
    np.testing.assert_allclose(roots_P(5).roots, expected, atol=1e-14)
    np.testing.assert_allclose(
        roots_P(5).roots,
        [-0.9061798459386640, -0.5384693101056831, 0.0, 0.5384693101056831, 0.9061798459386640],
        atol=1e-13,
    )


@pytest.mark.parametrize("N", [2, 3, 7, 16, 33, 64])
def test_root_properties(N):
    roots = roots_P(N).roots
    assert np.all(np.diff(roots) > 0)
    assert np.all(np.abs(roots) < 1.0)
    np.testing.assert_array_equal(roots, -roots[::-1])
    if N % 2 == 1:
        assert roots[N // 2] == 0.0
    assert max(abs(eval_P(N, r)) for r in roots) <= 1e-12


@pytest.mark.parametrize("N", [3, 8, 21, 64])
def test_interlacing(N):
    outer = roots_P(N).roots
    inner = roots_P(N - 1).roots
    for i, r in enumerate(inner):
        assert outer[i] < r < outer[i + 1]


def test_invalid_degree_rejected():
    with pytest.raises(ValueError):
        roots_P(0)
