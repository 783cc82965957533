import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import dense_hamiltonian
from scipy.special import eval_legendre

from qtlattice import (
    LatticeHamiltonian,
    biorthogonal_system,
    build_hamiltonian,
    build_metric_Q,
    ket,
    lattice,
    spectrum,
)
from qtlattice.legendre import roots_P


def test_hamiltonian_entries_small():
    assert dense_hamiltonian(1).tolist() == [[0.0]]
    np.testing.assert_array_equal(
        dense_hamiltonian(2), [[0.0, 1.0], [1.0 / 3.0, 0.0]]
    )
    expected4 = [
        [0.0, 1.0, 0.0, 0.0],
        [1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0],
        [0.0, 2.0 / 5.0, 0.0, 3.0 / 5.0],
        [0.0, 0.0, 3.0 / 7.0, 0.0],
    ]
    np.testing.assert_array_equal(dense_hamiltonian(4), expected4)


def test_hamiltonian_is_asymmetric():
    H = dense_hamiltonian(5)
    assert np.max(np.abs(H - H.T)) > 0.2


def test_metric_Q_values():
    np.testing.assert_array_equal(build_metric_Q(1), [0.5])
    np.testing.assert_array_equal(build_metric_Q(2), [0.5, 1.5])
    np.testing.assert_array_equal(build_metric_Q(3), [0.5, 1.5, 2.5])


@pytest.mark.parametrize("N", [2, 5, 16, 64])
def test_intertwining_residual(N):
    H = dense_hamiltonian(N)
    Q = np.diag(build_metric_Q(N))
    residual = np.max(np.abs(H.T @ Q - Q @ H))
    assert residual <= 1e-15 * np.max(np.abs(Q @ H))


@pytest.mark.parametrize("N", [1, 2, 3, 10, 64])
def test_spectrum_properties(N):
    roots = spectrum(build_hamiltonian(N)).roots
    assert len(roots) == N
    assert np.all(np.abs(roots) < 1.0)
    np.testing.assert_allclose(roots, -roots[::-1], atol=1e-14)
    if N > 1:
        assert np.min(np.diff(roots)) > 0


def test_spectrum_closed_forms():
    np.testing.assert_allclose(
        spectrum(build_hamiltonian(2)).roots,
        [-np.sqrt(1 / 3), np.sqrt(1 / 3)],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        spectrum(build_hamiltonian(3)).roots,
        [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)],
        atol=1e-14,
    )


def test_ket_values():
    np.testing.assert_array_equal(ket(3, 0.0), [1.0, 0.0, -0.5])
    np.testing.assert_array_equal(ket(2, 1.0), [1.0, 1.0])
    np.testing.assert_allclose(ket(4, 0.5), [1.0, 0.5, -0.125, -0.4375], atol=1e-16)


@pytest.mark.parametrize(
    "N, E", [(3, np.nan), (1, np.nan), (3, -np.inf), (2, [0.5, np.inf]), (5, 1e300), (1024, 2.0)]
)
def test_ket_rejects_non_finite_energies_and_overflow(N, E):
    # a NaN or inf energy fails the gate of real input; P_1023(2) is about 1e585,
    # and the gate on the column raises before numpy warns
    what = "E" if not np.isfinite(E).all() else f"the length-{N} ket"
    with pytest.raises(ValueError, match=f"^{what} is not finite"):
        ket(N, E)


def test_biorthogonal_system_trivial():
    system = biorthogonal_system(1)
    assert system.eigenvalues.roots.tolist() == [0.0]
    assert system.kets.tolist() == [[1.0]]
    assert system.ketkets.tolist() == [[0.5]]
    assert system.q_norms.tolist() == [0.5]


def test_biorthogonal_system_N2():
    system = biorthogonal_system(2)
    np.testing.assert_allclose(system.q_norms, [1.0, 1.0], atol=1e-14)
    E0 = system.eigenvalues.roots[0]
    np.testing.assert_allclose(system.ketkets[:, 0], [0.5, 1.5 * E0], atol=1e-15)


@pytest.mark.parametrize("N", [2, 3, 8, 32, 64])
def test_resolution_of_identity(N, system_cache):
    system = system_cache(N)
    projector = (system.kets / system.q_norms[None, :]) @ system.ketkets.T
    np.testing.assert_allclose(projector, np.eye(N), atol=1e-11)


@pytest.mark.parametrize("N", [2, 5, 17, 64])
def test_truncation_condition(N, system_cache):
    # the (N+1)-th component of the extended ket must vanish at eigenvalues
    for E in system_cache(N).eigenvalues.roots:
        assert abs(ket(N + 1, E)[N]) <= 1e-12


@pytest.mark.parametrize("N", [2, 6, 24])
def test_biorthogonality(N, system_cache):
    system = system_cache(N)
    gram = system.kets.T @ system.ketkets
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-12 * np.max(system.q_norms)


@pytest.mark.parametrize("N", [1, 2, 3, 64])
def test_spectrum_is_roots_P(N, system_cache):
    roots = roots_P(N).roots
    np.testing.assert_array_equal(spectrum(build_hamiltonian(N)).roots, roots, strict=True)
    np.testing.assert_array_equal(system_cache(N).eigenvalues.roots, roots, strict=True)


@pytest.mark.parametrize("N", [1, 2, 3, 64])
def test_kets_equal_per_root_recurrence(N, system_cache):
    system = system_cache(N)
    reference = np.column_stack(
        [ket(N, E) for E in system.eigenvalues.roots]
    )
    np.testing.assert_array_equal(system.kets, reference, strict=True)
    np.testing.assert_array_equal(ket(N, system.eigenvalues.roots), reference, strict=True)


@pytest.mark.parametrize("N", [2, 5, 64, 256])
def test_q_norms_match_christoffel_darboux(N, system_cache):
    """n(x) = sum_{c<N} (c + 1/2) P_c(x)^2 = (N/2)(P_N'(x) P_{N-1}(x) - P_N(x) P_{N-1}'(x)).

    At a root of P_N the second term vanishes and n_j = 1/w_j, the reciprocal
    Gauss-Legendre weight, so sum_j 1/n_j = 2.  The P come from scipy; keeping
    the second term makes the identity hold at the rounded roots too.
    """
    system = system_cache(N)
    x = system.eigenvalues.roots
    p, p1, p2 = (eval_legendre(k, x) for k in (N, N - 1, N - 2))
    dp = N * (x * p - p1) / (x * x - 1)
    dp1 = (N - 1) * (x * p1 - p2) / (x * x - 1)
    eps = np.finfo(float).eps
    # measured: 3.5e-14 at N = 64 and 6.2e-13 at N = 256, about N^2 eps / 25
    np.testing.assert_allclose(system.q_norms, 0.5 * N * (dp * p1 - p * dp1), rtol=N * N * eps)
    assert abs(np.sum(1 / system.q_norms) - 2) <= 4 * eps


@pytest.mark.parametrize("N", [2, 3, 16, 64, 256])
def test_gauss_legendre_moments(N, system_cache):
    """sum_k E_k^{2j} / n_k = 2/(2j + 1), the integral of x^{2j} over [-1, 1], for 2j <= 2N - 1:
    the roots are the Gauss-Legendre nodes and the 1/n_k its weights, checked together in O(N).

    Error model, relative to 2/(2j + 1): a root off by eps moves E^{2j} by 2j eps |E|^{2j-1},
    (2j + 1) eps of the moment; the power adds 2j eps, each weight a few eps, and the sum of N
    positive terms at most N eps (Higham, Accuracy and Stability, ch. 4).  Measured: 11 eps at
    most; q_norms scaled by 1 + 1e-12 read 4500 eps.
    """
    system = system_cache(N)
    j = np.arange(min(20, N))
    moments = np.sum(system.eigenvalues.roots ** (2 * j[:, None]) / system.q_norms, axis=1)
    exact = 2 / (2 * j + 1)
    bound = (4 * j + N + 8) * np.finfo(float).eps * exact
    assert np.all(np.abs(moments - exact) <= bound)


def test_eigen_residual_at_256(system_cache):
    system = system_cache(256)
    H = dense_hamiltonian(256)
    residual = np.max(np.abs(H @ system.kets - system.kets * system.eigenvalues.roots))
    assert residual <= 2e-13


def test_eigensystem_gates_hold_no_work_buffer():
    """Roots warm, biorthogonal_system(256) peaks at the kets, W = sqrt(Q) kets and the
    64-column blocks of both gates: about 3.02 arrays of 8 N^2 bytes (4.14 while the gates
    shared one N x N work buffer)."""
    N = 256
    roots_P(N)
    tracemalloc.start()
    try:
        biorthogonal_system(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * 8 * N**2 <= peak <= 3.1 * 8 * N**2  # a cold build, not a memo hit


def test_kept_system_holds_one_array():
    """Roots warm, the system that biorthogonal_system(256) returns holds its kets and
    q_norms: 1.00 arrays of 8 N^2 bytes (2.01 while it kept its Q kets as well)."""
    N = 256
    roots_P(N)
    tracemalloc.start()
    try:
        system = biorthogonal_system(N)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert system.dimension == N
    assert 8 * N**2 <= current <= 1.1 * 8 * N**2


def test_gate_failures_report_residual_gate_and_size(monkeypatch):
    monkeypatch.setattr(lattice, "EIGEN_RESIDUAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match=r"eigen residual \S+e-\d+ > 0e\+00 at N=8$"):
        biorthogonal_system(8)
    monkeypatch.undo()
    # kets^T I kets is not diagonal: only Q makes the kets biorthogonal
    monkeypatch.setattr(lattice, "build_metric_Q", lambda N: np.ones(N))
    with pytest.raises(RuntimeError, match=r"Gram off-diagonal \S+ > \S+e-\d+ at N=8$"):
        biorthogonal_system(8)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0)])
@pytest.mark.parametrize("call", [roots_P, biorthogonal_system, lambda N: ket(N, 0.3),
                                  lambda N: ket(N, [0.3, -0.3])])
def test_sizes_must_be_integers(call, bad):
    with pytest.raises(ValueError, match="integer"):
        call(bad)


def test_memo_validates_the_size_before_the_lookup():
    one = biorthogonal_system(1)
    for bad in (True, 1.0, np.float64(1.0)):
        with pytest.raises(ValueError, match="integer"):
            biorthogonal_system(bad)
    for bad in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="at least 1"):
            biorthogonal_system(bad)
    assert biorthogonal_system(1) is one


def test_memo_keeps_the_last_size_only():
    eight = biorthogonal_system(8)
    assert biorthogonal_system(np.int64(8)) is eight
    assert biorthogonal_system(8) is eight
    assert biorthogonal_system(5).dimension == 5
    rebuilt = biorthogonal_system(8)
    assert rebuilt is not eight
    np.testing.assert_array_equal(rebuilt.kets, eight.kets)


@pytest.mark.parametrize("field", ["kets", "q_norms"])
def test_system_arrays_are_read_only(field):
    array = getattr(biorthogonal_system(4), field)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        array *= 2.0


def test_ketkets_are_formed_anew_from_the_kets():
    system = biorthogonal_system(4)
    assert "ketkets" not in {field.name for field in dataclasses.fields(system)}
    expected = build_metric_Q(4)[:, None] * system.kets
    ketkets = system.ketkets
    np.testing.assert_array_equal(ketkets, expected, strict=True)
    ketkets[0] = 1.0
    ketkets *= 2.0
    np.testing.assert_array_equal(system.ketkets, expected, strict=True)


@pytest.mark.parametrize("N", [1, 2, 64])
def test_hamiltonian_bands_derive_from_its_size(N):
    H = LatticeHamiltonian(N)
    assert H.dimension == N
    up = np.array([(k + 1) / (2 * k + 1) for k in range(N - 1)], dtype=float)
    down = np.array([(k + 1) / (2 * k + 3) for k in range(N - 1)], dtype=float)
    np.testing.assert_array_equal(H.superdiagonal, up, strict=True)
    np.testing.assert_array_equal(H.subdiagonal, down, strict=True)


@pytest.mark.parametrize("bad, rule", [(0, "at least 1"), (2.5, "an integer"), (True, "an integer")])
def test_hamiltonian_size_is_checked(bad, rule):
    with pytest.raises(ValueError, match=f"^a size must be {rule}, not {bad!r}$"):
        LatticeHamiltonian(bad)
