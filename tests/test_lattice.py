import numpy as np
import pytest

from qtlattice import (
    biorthogonal_system,
    build_hamiltonian,
    build_metric_Q,
    ket,
    spectrum,
)
from qtlattice.legendre import eval_P_table, roots_P


def test_hamiltonian_entries_small():
    assert build_hamiltonian(1).to_dense().tolist() == [[0.0]]
    np.testing.assert_array_equal(
        build_hamiltonian(2).to_dense(), [[0.0, 1.0], [1.0 / 3.0, 0.0]]
    )
    expected4 = [
        [0.0, 1.0, 0.0, 0.0],
        [1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0],
        [0.0, 2.0 / 5.0, 0.0, 3.0 / 5.0],
        [0.0, 0.0, 3.0 / 7.0, 0.0],
    ]
    np.testing.assert_array_equal(build_hamiltonian(4).to_dense(), expected4)


def test_hamiltonian_is_asymmetric():
    H = build_hamiltonian(5).to_dense()
    assert np.max(np.abs(H - H.T)) > 0.2


def test_metric_Q_values():
    np.testing.assert_array_equal(build_metric_Q(1).entries, [0.5])
    np.testing.assert_array_equal(build_metric_Q(2).entries, [0.5, 1.5])
    np.testing.assert_array_equal(build_metric_Q(3).entries, [0.5, 1.5, 2.5])


@pytest.mark.parametrize("N", [2, 5, 16, 64])
def test_intertwining_residual(N):
    H = build_hamiltonian(N).to_dense()
    Q = build_metric_Q(N).to_dense()
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
        assert abs(eval_P_table(N, E)[N]) <= 1e-12


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
        [eval_P_table(N - 1, E) for E in system.eigenvalues.roots]
    )
    np.testing.assert_array_equal(system.kets, reference, strict=True)
    np.testing.assert_array_equal(ket(N, system.eigenvalues.roots), reference, strict=True)


def test_eigen_residual_at_256(system_cache):
    system = system_cache(256)
    H = build_hamiltonian(256).to_dense()
    residual = np.max(np.abs(H @ system.kets - system.kets * system.eigenvalues.roots))
    assert residual <= 2e-13
