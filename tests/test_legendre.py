import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import roots_legendre

from qtlattice import legendre
from qtlattice.legendre import (
    _certify_roots,
    _derivative_from_pair,
    _eval_pair,
    eval_P_table,
    roots_P,
)


def _P(n, x):
    return float(eval_P_table(n, x)[n])


def _P_derivative(n, x):
    """Newton's derivative of P_n at x (|x| < 1)."""
    return float(_derivative_from_pair(n, x, *_eval_pair(n, np.array(x))))


def test_low_degree_values():
    assert _P(0, 0.7) == 1.0
    assert _P(1, 0.7) == 0.7
    assert _P(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_table_invariants():
    table = eval_P_table(6, 0.3)
    assert table[0] == 1.0
    assert table[1] == 0.3


def test_derivative_small_cases():
    assert _P_derivative(1, 0.3) == 1.0
    assert _P_derivative(2, 0.5) == pytest.approx(1.5, abs=1e-15)
    # oracle: P_3 = (5x^3 - 3x)/2, so P_3'(0) = -3/2
    assert _P_derivative(3, 0.0) == pytest.approx(-1.5, abs=1e-15)


def test_derivative_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(30):
        n = int(rng.integers(1, 12))
        x = float(rng.uniform(-0.95, 0.95))
        fd = (_P(n, x + h) - _P(n, x - h)) / (2 * h)
        assert _P_derivative(n, x) == pytest.approx(fd, abs=1e-7)


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
    # the independent 5x5 Jacobi eigensolve, couplings (k+1)/sqrt((2k+1)(2k+3))
    k = np.arange(4.0)
    expected = eigvalsh_tridiagonal(np.zeros(5), (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3)))
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
    assert np.max(np.abs(eval_P_table(N, roots)[N])) <= 1e-12


@pytest.mark.parametrize("N", [3, 8, 21, 64])
def test_interlacing(N):
    outer = roots_P(N).roots
    inner = roots_P(N - 1).roots
    for i, r in enumerate(inner):
        assert outer[i] < r < outer[i + 1]


def test_invalid_degree_rejected():
    with pytest.raises(ValueError):
        roots_P(0)


@pytest.mark.parametrize("N", [1, 64, 1024, 4096])
def test_sturm_certificate_accepts_roots_and_rejects_a_moved_root(N):
    roots = roots_legendre(N)[0]
    _certify_roots(roots)
    j = N // 3
    # moved up, one eigenvalue too many lies below x_j - delta; moved down,
    # one too few lies below x_j + delta
    for step, count in [(3e-12, j + 1), (-3e-12, j)]:
        moved = roots.copy()
        moved[j] += step
        message = f"P_{N} failed at root {j}: {count} .* {count} below"
        with pytest.raises(RuntimeError, match=message):
            _certify_roots(moved)


def test_roots_P_certifies_cached_roots_too(monkeypatch):
    roots_P(3)
    monkeypatch.setattr(legendre, "sturm_count", lambda d, b, shifts: np.zeros(len(shifts), int))
    with pytest.raises(RuntimeError, match="P_3 failed at root 0: 0 .* 0 below"):
        roots_P(3)
