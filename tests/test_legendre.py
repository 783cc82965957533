import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import roots_legendre

from qtlattice import legendre
from qtlattice.lattice import ket
from qtlattice.legendre import (
    _certify_roots,
    _derivative_from_pair,
    _eval_pair,
    _largest_root,
    roots_P,
)


def _P(n, x):
    return float(ket(n + 1, x)[n])


def _P_derivative(n, x):
    """Newton's derivative of P_n at x (|x| < 1)."""
    return float(_derivative_from_pair(n, x, *_eval_pair(n, np.array(x))))


def test_low_degree_values():
    assert _P(0, 0.7) == 1.0
    assert _P(1, 0.7) == 0.7
    assert _P(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_table_invariants():
    table = ket(7, 0.3)
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
    table = ket(n + 2, x)
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
    assert np.max(np.abs(ket(N + 1, roots)[N])) <= 1e-12


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
    _certify_roots(roots, N)
    j = N // 3
    # moved up, one eigenvalue too many lies below x_j - delta; moved down,
    # one too few lies below x_j + delta
    for step, count in [(3e-12, j + 1), (-3e-12, j)]:
        moved = roots.copy()
        moved[j] += step
        message = f"P_{N} failed at root {j}: {count} .* {count} below"
        with pytest.raises(RuntimeError, match=message):
            _certify_roots(moved, N)


def _certificate_inputs(monkeypatch, certify):
    """The arguments of the one `sturm_count` call that `certify()` makes."""
    calls = []
    count = legendre.sturm_count
    monkeypatch.setattr(legendre, "sturm_count", lambda *arrays: calls.append(arrays) or count(*arrays))
    certify()
    (arrays,) = calls
    return arrays


def _in_kernel_window(arrays) -> bool:
    """Every nonzero modulus in [2^-250, 2^250], where `sturm_count` needs no rescale."""
    moduli = np.abs(np.concatenate(arrays))
    moduli = moduli[moduli > 0]
    return bool(np.all((2.0**-250 <= moduli) & (moduli <= 2.0**250)))


@pytest.mark.parametrize("N", [1, 2, 64, 4096])
def test_certificate_inputs_lie_in_the_kernel_window(N, monkeypatch):
    """`sturm_count` rescales nothing, so the certificate relies on J and its shifts x_j -+ 1e-12
    lying in the kernel's window as built: J's couplings in [0.5, 0.58] and the shifts' moduli
    from 1e-12 (the root 0 of odd N) to 1 + 1e-12.  The roots of `roots_P` up to N = 64; at
    N = 4096 scipy's, where the cold ladder would take minutes."""
    if N <= 64:
        arrays = _certificate_inputs(monkeypatch, lambda: roots_P(N))
    else:
        arrays = _certificate_inputs(monkeypatch, lambda: _certify_roots(roots_legendre(N)[0], N))
    assert [len(x) for x in arrays] == [N, N - 1, 2 * N]
    assert _in_kernel_window(arrays)


def test_top_root_certificate_inputs_lie_in_the_kernel_window(monkeypatch):
    """The same for the largest root alone, at the N = 2e5 of the horizon's gamma = 1/2 test."""
    N = 200_000
    arrays = _certificate_inputs(monkeypatch, lambda: _certify_roots(np.array([_largest_root(N)]), N))
    assert [len(x) for x in arrays] == [N, N - 1, 2]
    assert _in_kernel_window(arrays)


def test_roots_P_certifies_cached_roots_too(monkeypatch):
    roots_P(3)
    monkeypatch.setattr(legendre, "sturm_count", lambda d, b, shifts: np.zeros(len(shifts), int))
    with pytest.raises(RuntimeError, match="P_3 failed at root 0: 0 .* 0 below"):
        roots_P(3)


def test_largest_root_closed_forms():
    assert abs(_largest_root(2) - 1 / np.sqrt(3)) <= np.spacing(1 / np.sqrt(3))
    assert abs(_largest_root(3) - np.sqrt(3 / 5)) <= np.spacing(np.sqrt(3 / 5))


def test_cold_ladder_takes_newton_steps_not_bisections(monkeypatch):
    # Newton needs about 9 evaluations per degree; a converged step rejected at
    # a bracket end costs about 40 bisections per degree
    calls = []

    def counted(n, x):
        calls.append(n)
        return _eval_pair(n, x)

    monkeypatch.setattr(legendre, "_root_cache", {1: legendre._root_cache[1]})
    monkeypatch.setattr(legendre, "_eval_pair", counted)
    N = 64
    np.testing.assert_allclose(roots_P(N).roots, roots_legendre(N)[0], rtol=0, atol=4e-16)
    assert len(calls) <= 10 * (N - 1)
