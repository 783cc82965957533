import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import dense_hamiltonian

from qtlattice import (
    KappaVector,
    MetricOperator,
    build_metric_Q,
    criterion_product_hermitian,
    dieudonne_residual,
    exceptional_kappa,
    metric_from_kappa,
    observable_from_hermitian,
    overlap_matrices,
    spectral_data,
)
from qtlattice.observables import ObservableSpectralData


def Q_metric(N):
    return MetricOperator.from_matrix(np.diag(build_metric_Q(N)), "diagonal-Q")


def test_residual_trivial_cases():
    theta = Q_metric(3)
    assert dieudonne_residual(np.eye(3), theta) == 0.0
    H = dense_hamiltonian(3)
    assert dieudonne_residual(H, theta) <= 1e-15


def test_residual_detects_transpose():
    H = dense_hamiltonian(2)
    assert dieudonne_residual(H.T, Q_metric(2)) > 0.1


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        dieudonne_residual(np.eye(2), Q_metric(3))


def test_observable_from_hermitian_trivial():
    theta = Q_metric(3)
    np.testing.assert_allclose(
        observable_from_hermitian(theta.matrix, theta), np.eye(3), atol=1e-15
    )


def test_observable_from_hermitian_certified(rng):
    theta = Q_metric(4)
    for _ in range(5):
        K = rng.normal(size=(4, 4))
        K = 0.5 * (K + K.T)
        Lam = observable_from_hermitian(K, theta)
        assert dieudonne_residual(Lam, theta) <= 1e-13


def test_observable_from_hermitian_rejects_singular():
    # a NaN or inf Theta is named as such, not reported by the SVD or as singular
    for matrix, message in [
        (np.zeros((2, 2)), "theta is numerically singular"),
        (np.diag([np.nan, 1.0]), "theta is not finite"),
        (np.diag([np.inf, 1.0]), "theta is not finite"),
    ]:
        theta = MetricOperator(2, matrix, "singular", "external")
        with pytest.raises(ValueError, match=message):
            observable_from_hermitian(np.eye(2), theta)


def test_spectral_data_diagonal():
    data = spectral_data(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(data.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(data.right_vectors), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(np.abs(data.left_vectors), np.eye(3), atol=1e-14)


def test_spectral_data_lattice_hamiltonian():
    data = spectral_data(dense_hamiltonian(2))
    np.testing.assert_allclose(
        data.eigenvalues.real, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-14
    )
    for j in range(2):
        v = data.right_vectors[:, j] / data.right_vectors[0, j]
        np.testing.assert_allclose(v.real, [1.0, data.eigenvalues[j].real], atol=1e-13)


def test_spectral_data_complex_pair():
    data = spectral_data(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(
        sorted(data.eigenvalues, key=lambda z: z.imag), [-1j, 1j], atol=1e-14
    )


def test_spectral_data_left_vectors_are_transpose_eigenvectors(rng):
    Lam = rng.normal(size=(64, 64))
    data = spectral_data(Lam)
    assert np.max(np.abs(data.eigenvalues.imag)) > 0.1  # complex pairs present
    values = data.eigenvalues[None, :]
    right = np.max(np.abs(Lam @ data.right_vectors - data.right_vectors * values))
    left = np.max(np.abs(Lam.T @ data.left_vectors - data.left_vectors * values))
    bound = 1e-12 * np.max(np.abs(Lam))
    assert right <= bound
    assert left <= bound


@pytest.mark.parametrize("N", [2, 8, 64])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spectral_data_is_scipy_geev_bitwise(N, kind, rng):
    """Eigenvalues and right vectors are those of scipy.linalg.eig bit for bit;
    the left vectors (rows of R^{-1}) are scipy's conjugated ones up to a phase."""
    Lam = rng.normal(size=(N, N)) + (1j * rng.normal(size=(N, N)) if kind == "complex" else 0)
    data = spectral_data(Lam)
    values, left, right = scipy.linalg.eig(Lam.astype(complex), left=True, right=True)
    order = np.lexsort((values.imag, values.real))
    np.testing.assert_array_equal(data.eigenvalues, values[order], strict=True)
    np.testing.assert_array_equal(data.right_vectors, right[:, order], strict=True)
    np.testing.assert_allclose(np.linalg.norm(data.left_vectors, axis=0), 1.0, rtol=1e-14)
    phases = np.einsum("ij,ij->j", left[:, order], data.left_vectors)
    np.testing.assert_allclose(np.abs(phases), 1.0, rtol=1e-10)


def test_spectral_data_rejects_degenerate():
    with pytest.raises(ValueError):
        spectral_data(np.eye(3))


@pytest.mark.parametrize("scale", [1e-11, 1e-6, 1.0, 1e6])
def test_gap_gate_is_relative_to_the_largest_entry(scale):
    data = spectral_data(scale * np.diag([1.0, 2.0]))
    np.testing.assert_allclose(data.eigenvalues, scale * np.array([1.0, 2.0]), rtol=1e-15)
    for gap in (0.0, 1e-11):
        with pytest.raises(ValueError, match="degenerate"):
            spectral_data(scale * np.diag([1.0, 1.0 + gap]))


def test_spectral_reconstruction(rng):
    for _ in range(10):
        Lam = rng.normal(size=(5, 5))
        data = spectral_data(Lam)
        reconstruction = (
            data.right_vectors
            * (data.eigenvalues / data.pairing_norms)[None, :]
        ) @ data.left_vectors.T
        assert np.max(np.abs(reconstruction - Lam)) <= 1e-10 * max(1, np.abs(Lam).max())


def _identity_spectral_data(N, shifts):
    """Hand-built spectral data for diag(shifts): standard basis eigensystem."""
    basis = np.eye(N, dtype=complex)
    return ObservableSpectralData(
        N, np.asarray(shifts, dtype=complex), basis, basis, np.ones(N, dtype=complex)
    )


def test_overlap_identity_observable(system_cache):
    # the identity has a fully degenerate spectrum, so its spectral data is
    # supplied by hand; M must come out diagonal and Hermitian
    system = system_cache(3)
    kappa = KappaVector(3, np.array([1.0, 2.0, 3.0]))
    data = _identity_spectral_data(3, [1.0, 1.0, 1.0])
    pair = overlap_matrices(system, kappa, data)
    expected = np.diag(1.0 / (kappa.values * system.q_norms))
    np.testing.assert_allclose(pair.M, expected, atol=1e-12)
    assert criterion_product_hermitian(pair)


def test_overlap_hamiltonian_is_observable(system_cache):
    system = system_cache(3)
    data = spectral_data(dense_hamiltonian(3))
    pair = overlap_matrices(system, exceptional_kappa(system), data)
    assert pair.hermiticity_residual <= 1e-11
    assert criterion_product_hermitian(pair)


def test_overlap_transpose_fails(system_cache):
    system = system_cache(3)
    data = spectral_data(dense_hamiltonian(3).T)
    pair = overlap_matrices(system, exceptional_kappa(system), data)
    assert pair.hermiticity_residual > 1e-3
    assert not criterion_product_hermitian(pair)


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_criterion_equivalent_to_residual(N, system_cache, rng):
    system = system_cache(N)
    for _ in range(20):
        kappa = KappaVector(N, rng.uniform(0.2, 3.0, N))
        theta = metric_from_kappa(system, kappa)
        K = rng.normal(size=(N, N))
        K = 0.5 * (K + K.T)
        Lam = observable_from_hermitian(K, theta)
        assert dieudonne_residual(Lam, theta) <= 1e-11
        pair = overlap_matrices(system, kappa, spectral_data(Lam))
        assert criterion_product_hermitian(pair)

        bad = rng.normal(size=(N, N))
        assert dieudonne_residual(bad, theta) > 1e-8
        pair_bad = overlap_matrices(system, kappa, spectral_data(bad))
        assert not criterion_product_hermitian(pair_bad)


def test_criterion_scale_invariant(system_cache, rng):
    system = system_cache(4)
    kappa = KappaVector(4, rng.uniform(0.5, 2.0, 4))
    theta = metric_from_kappa(system, kappa)
    K = rng.normal(size=(4, 4))
    K = 0.5 * (K + K.T)
    Lam = observable_from_hermitian(K, theta)
    for scale in (1e-11, 1e-6, 1.0, 10.0, 1000.0):
        pair = overlap_matrices(system, kappa, spectral_data(scale * Lam))
        assert criterion_product_hermitian(pair)
    bad = rng.normal(size=(4, 4))
    signs = None
    for scale in (1e-11, 1e-6, 1.0, 5.0):
        pair = overlap_matrices(system, kappa, spectral_data(scale * bad))
        assert not criterion_product_hermitian(pair)
        asymmetry = np.sign(np.round((pair.M - pair.M.conj().T).real / scale, 12))
        if signs is None:
            signs = asymmetry
        else:
            np.testing.assert_array_equal(asymmetry, signs)


def test_dieudonne_verdict_scale_invariant(system_cache, rng):
    """The residual, and the verdict at 1e-10, do not change when Lambda or Theta is rescaled."""
    system = system_cache(4)
    theta = metric_from_kappa(system, KappaVector(4, rng.uniform(0.5, 2.0, 4)))
    K = rng.normal(size=(4, 4))
    Lam = observable_from_hermitian(0.5 * (K + K.T), theta)
    bad = rng.normal(size=(4, 4))
    for scale in (1.0, 1e-6, 1e-12):
        small = MetricOperator(4, scale * theta.matrix, theta.definiteness, theta.provenance)
        for candidate, observable in ((Lam, True), (bad, False)):
            residuals = [dieudonne_residual(scale * candidate, theta),
                         dieudonne_residual(candidate, small)]
            for residual in residuals:
                assert (residual <= 1e-10) == observable
            if not observable:
                np.testing.assert_allclose(residuals, dieudonne_residual(bad, theta), rtol=1e-12)


@pytest.mark.parametrize("K", [np.ones(3), np.ones((3, 1)), np.ones((1, 3, 3)), 1.0])
def test_observable_from_hermitian_needs_a_square_K(K):
    with pytest.raises(ValueError, match="square"):
        observable_from_hermitian(K, Q_metric(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observable_from_hermitian_rejects_non_finite_K_without_a_warning(bad):
    K = np.eye(3)
    K[0, 1] = K[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            observable_from_hermitian(K, Q_metric(3))


@pytest.mark.parametrize(
    "Lambda, message",
    [
        (np.zeros((0, 0)), "nonempty square Lambda"),
        (np.ones(3), "nonempty square Lambda"),
        (np.ones((2, 3)), "nonempty square Lambda"),
        ([[np.nan, 0.0], [0.0, 1.0]], "Lambda is not finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "Lambda is not finite"),
        ([[1.0, 0.0], [-np.inf, 2.0]], "Lambda is not finite"),
        ([["1", "0"], ["0", "2"]], "Lambda must be numbers"),
        ([[1.0, None], [0.0, 2.0]], "Lambda must be numbers"),
    ],
)
def test_spectral_data_names_a_malformed_Lambda(Lambda, message):
    # checked before numpy sees it: not numpy's LinAlgError or its reduction error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as excinfo:
            spectral_data(Lambda)
    assert type(excinfo.value) is ValueError


def test_spectral_reconstruction_failure_is_a_value_error():
    # kappa = 1/|pairing| = 1e6: the estimate 2 eps kappa^2 max|Lambda| is 4.4e-4
    with pytest.raises(ValueError, match=r"reconstruction error estimate 4\.4e-04 > 1\.0e-10$"):
        spectral_data(np.array([[1.0, 1.0], [0.0, 1.000001]]))


def test_conditioning_verdict_is_scale_invariant():
    """max|Lambda| cancels from the gate: N eps kappa^2 <= 1e-10 max(1, N/64)."""
    near_defective = np.array([[1.0, 1.0], [0.0, 1.001]])
    separated = np.array([[1.0, 1.0], [0.0, 2.0]])
    for scale in (1.0, 1e-6, 1e-12):
        with pytest.raises(ValueError, match=r"estimate 4\.4e-10 > 1\.0e-10$"):
            spectral_data(scale * near_defective)
        data = spectral_data(scale * separated)
        np.testing.assert_allclose(data.eigenvalues, scale * np.array([1.0, 2.0]), rtol=1e-12)


def test_near_defective_verdict_is_monotone():
    """[[1, 1], [0, 1 + delta]] has cond(R) of about 2/delta, 2e2 to 2e7 here.

    Their reconstruction residual is 0 at some delta and 1.2e-10 at delta = 1e-6,
    by rounding.  The gate passes kappa = 1/delta up to 474 at N = 2.
    """
    verdicts = []
    for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 3e-7, 1e-7):
        matrix = np.array([[1.0, 1.0], [0.0, 1.0 + delta]])
        try:
            data = spectral_data(matrix)
        except ValueError:
            verdicts.append(False)
            continue
        verdicts.append(True)
        reconstruction = (
            data.right_vectors * (data.eigenvalues / data.pairing_norms)[None, :]
        ) @ data.left_vectors.T
        assert np.max(np.abs(reconstruction - matrix)) <= 1e-10
    assert verdicts == [True] + 6 * [False]


def test_conditioning_gate_grows_as_its_model_above_64():
    """A pair with eigenvalue condition number 60 in an N = 256 diagonal.

    Its estimate 256 eps 60^2 max|Lambda| = 4.1e-10 is above 1e-10 max|Lambda| but
    within 1e-10 (N/64) max|Lambda|; at N = 64 the same pair is within 1e-10.
    """
    for N in (64, 256):
        Lambda = np.diag(np.linspace(1.0, 2.0, N))
        Lambda[0, 1] = 60 * (Lambda[1, 1] - Lambda[0, 0])
        data = spectral_data(Lambda)
        np.testing.assert_allclose(np.max(1 / np.abs(data.pairing_norms)), np.sqrt(3601), rtol=1e-6)
