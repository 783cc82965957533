import tracemalloc
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
    tridiagonal_metric,
)
from qtlattice.observables import ObservableSpectralData, OverlapPair


def Q_metric(N):
    return MetricOperator(np.diag(build_metric_Q(N)), "diagonal-Q")


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
    theta = MetricOperator(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="theta is numerically singular"):
        observable_from_hermitian(np.eye(2), theta)
    # a NaN or inf Theta is named as such when it is built, so it never reaches the gate
    for entry in (np.nan, np.inf):
        with pytest.raises(ValueError, match="theta is not finite"):
            MetricOperator(np.diag([entry, 1.0]))


def test_conditioning_gate_reads_symmetric_eigenvalues(monkeypatch, system_cache, rng):
    """Theta is symmetric, so its 2-norm condition number is max|lambda| / min|lambda| of
    eigvalsh: no SVD (numpy's cond) runs.  The gate rejects unless min|lambda| > 1e-13 max|lambda|."""

    def no_svd(*args, **kwargs):
        raise AssertionError("numpy.linalg.cond ran")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    system = system_cache(8)
    theta = metric_from_kappa(system, KappaVector(8, rng.uniform(0.5, 2.0, 8)))
    K = rng.normal(size=(8, 8))
    assert dieudonne_residual(observable_from_hermitian(K + K.T, theta), theta) <= 1e-12
    with pytest.raises(ValueError, match="theta is numerically singular"):
        observable_from_hermitian(np.eye(2), MetricOperator(np.zeros((2, 2))))
    observable_from_hermitian(np.eye(2), MetricOperator(np.diag([1.0, 1.01e-13])))
    for smallest in (0.99e-13, -0.99e-13):
        with pytest.raises(ValueError, match="theta is numerically singular"):
            observable_from_hermitian(np.eye(2), MetricOperator(np.diag([1.0, smallest])))


def test_observable_from_hermitian_names_a_size_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch between K and theta"):
        observable_from_hermitian(np.eye(2), tridiagonal_metric(3, 0.1))


def test_dieudonne_residual_of_a_theta_built_from_lists():
    theta = MetricOperator([[1.0, 0.0], [0.0, 2.0]], "x")
    assert isinstance(theta.matrix, np.ndarray)
    assert dieudonne_residual(np.eye(2), theta) == 0.0


def test_dieudonne_residual_never_sees_a_theta_that_is_not_a_matrix():
    """A 3-D Theta is not a matrix: no residual, and so no "observable" verdict, for it."""
    with pytest.raises(ValueError, match="theta must be two-dimensional"):
        dieudonne_residual(np.ones((2, 2, 2)), MetricOperator(np.ones((2, 2, 2)), "x"))


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
@pytest.mark.parametrize("kind", ["real", "real-spectrum", "complex"])
def test_spectral_data_is_scipy_geev_bitwise(N, kind, rng):
    """Eigenvalues and right vectors are those of scipy.linalg.eig of the same Lambda bit
    for bit, real where numpy's real eig finds a real spectrum; the left vectors (rows of
    R^{-1}) are scipy's conjugated ones up to a phase."""
    Lam = rng.normal(size=(N, N))
    if kind == "real-spectrum":  # P^{-1} K with P > 0 and K symmetric, like Theta^{-1} K
        Lam = np.linalg.solve(Lam @ Lam.T + N * np.eye(N), Lam + Lam.T)
    elif kind == "complex":
        Lam = Lam + 1j * rng.normal(size=(N, N))
    data = spectral_data(Lam)
    values, left, right = scipy.linalg.eig(Lam, left=True, right=True)
    if kind == "real-spectrum" or data.eigenvalues.dtype == np.float64:
        assert not np.any(values.imag) and not np.any(right.imag)
        values, right = values.real, right.real
    order = np.lexsort((values.imag, values.real))
    np.testing.assert_array_equal(data.eigenvalues, values[order], strict=True)
    np.testing.assert_array_equal(data.right_vectors, right[:, order], strict=True)
    np.testing.assert_allclose(np.linalg.norm(data.left_vectors, axis=0), 1.0, rtol=1e-14)
    phases = np.einsum("ij,ij->j", left[:, order], data.left_vectors)
    np.testing.assert_allclose(np.abs(phases), 1.0, rtol=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.int64])
def test_real_spectrum_stays_real(dtype):
    """A real Lambda goes to numpy's real eig in double precision (numpy's linalg would return
    float32 for float32 and reject float16): a real spectrum comes back in float64 arrays."""
    data = spectral_data(np.diag([1, 2]).astype(dtype))
    for array in (data.eigenvalues, data.right_vectors, data.left_vectors, data.pairing_norms):
        assert array.dtype == np.float64
    np.testing.assert_array_equal(data.eigenvalues, [1.0, 2.0])


def test_complex_pair_of_a_real_matrix_is_exactly_conjugate():
    data = spectral_data(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert data.eigenvalues.dtype == np.complex128
    np.testing.assert_array_equal(data.eigenvalues, data.eigenvalues[::-1].conj())
    np.testing.assert_array_equal(data.right_vectors, data.right_vectors[:, ::-1].conj())
    np.testing.assert_allclose(data.eigenvalues, [-1j, 1j], atol=1e-15)


def test_real_spectrum_peaks(system_cache, rng):
    """N = 256, Lambda = Theta^{-1} K: spectral_data peaks at about 3.0 arrays of 8 N^2 bytes
    and overlap_matrices at 3.5, in real arithmetic (9.0 and 12.3 with Lambda cast to complex;
    spectral_data read 4.0 while it formed the gaps |lambda_i - lambda_j| as whole N x N arrays,
    overlap_matrices 7.0 while it formed unit-norm copies of the kets and Q kets, and 5.0
    while OverlapPair formed M - M^H and its modulus)."""
    N = 256
    system = system_cache(N)
    kappa = KappaVector(N, rng.uniform(0.5, 2.0, N) / system.q_norms)
    K = rng.normal(size=(N, N))
    Lam = observable_from_hermitian(K + K.T, metric_from_kappa(system, kappa))
    data, spectral_peak = _traced_peak(lambda: spectral_data(Lam))
    _, overlap_peak = _traced_peak(lambda: overlap_matrices(system, kappa, data))
    assert spectral_peak <= 3.5 * 8 * N**2
    assert overlap_peak <= 4.0 * 8 * N**2


def test_complex_spectrum_overlap_peak(system_cache, rng):
    """N = 256, a normal Lambda with a complex spectrum: spectral_data peaks at about 6.0 arrays
    of 8 N^2 bytes (7.0 with the gaps formed whole), and overlap_matrices at about 7.3 for a
    complex M of 2 (12.3 with unit-norm ket copies, 10.3 while OverlapPair formed M - M^H and
    its modulus)."""
    N = 256
    system = system_cache(N)
    kappa = KappaVector(N, rng.uniform(0.5, 2.0, N) / system.q_norms)
    O = np.linalg.qr(rng.normal(size=(N, N)))[0]
    Lam = (O * (np.arange(N) + 1j * rng.uniform(-1, 1, N))) @ O.T
    data, spectral_peak = _traced_peak(lambda: spectral_data(Lam))
    assert data.eigenvalues.dtype == np.complex128
    assert spectral_peak <= 6.5 * 8 * N**2
    _, peak = _traced_peak(lambda: overlap_matrices(system, kappa, data))
    assert peak <= 8.0 * 8 * N**2


def _traced_peak(call):
    """call() and the peak of the memory that tracemalloc traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_data_rejects_degenerate():
    with pytest.raises(ValueError):
        spectral_data(np.eye(3))


def test_gap_gate_reads_pairs_far_apart_in_the_sorted_spectrum():
    """The gaps are read by 64-row blocks: a near pair sorted 129 places apart is still caught.
    Sorted by real part, 0 and 2e-18 bracket 128 eigenvalues far off the real axis."""
    k = np.arange(1, 129)
    spectrum = np.r_[0.0, k * 1e-20 + 10j * k, 2e-18]
    with pytest.raises(ValueError, match="degenerate"):
        spectral_data(np.diag(spectrum))
    assert spectral_data(np.diag(spectrum[:-1])).dimension == 129


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


def _identity_spectral_data(shifts):
    """Hand-built spectral data for diag(shifts): standard basis eigensystem."""
    N = len(shifts)
    basis = np.eye(N, dtype=complex)
    return ObservableSpectralData(
        np.asarray(shifts, dtype=complex), basis, basis, np.ones(N, dtype=complex)
    )


def test_overlap_identity_observable(system_cache):
    # the identity has a fully degenerate spectrum, so its spectral data is
    # supplied by hand; M must come out diagonal and Hermitian
    system = system_cache(3)
    kappa = KappaVector(3, np.array([1.0, 2.0, 3.0]))
    data = _identity_spectral_data([1.0, 1.0, 1.0])
    pair = overlap_matrices(system, kappa, data)
    expected = np.diag(1.0 / (kappa.values * system.q_norms))
    np.testing.assert_allclose(pair.M, expected, atol=1e-12)
    assert criterion_product_hermitian(pair)


def test_overlap_of_complex_eigenvalues_over_real_vectors(system_cache):
    """diag(1, 2, 3 + i) has the real standard basis for eigenvectors: its hand-built data
    give the product of the same data with the vectors cast to complex."""
    system = system_cache(3)
    kappa = KappaVector(3, np.array([1.0, 2.0, 3.0]))
    eigenvalues, basis = np.array([1.0, 2.0, 3.0 + 1.0j]), np.eye(3)
    real = overlap_matrices(system, kappa, ObservableSpectralData(eigenvalues, basis, basis, np.ones(3)))
    cast = overlap_matrices(system, kappa, _identity_spectral_data(eigenvalues))
    np.testing.assert_allclose(real.M, cast.M, rtol=1e-15, atol=0)


def test_spectral_data_of_another_size_is_a_dimension_mismatch(system_cache):
    # its dimension is the number of its eigenvalues, so it cannot disagree with its arrays
    data = ObservableSpectralData(np.ones(2), np.eye(2), np.eye(2), np.ones(2))
    assert data.dimension == 2
    system = system_cache(3)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        overlap_matrices(system, exceptional_kappa(system), data)


@pytest.mark.parametrize("tol", [np.nan, np.inf, np.array([1e-3, 1e-3]), "1e-3", 1e-3j, 0.0, -1e-3])
def test_criterion_tolerance_is_one_positive_finite_number(tol):
    """As `--tol-criterion`: an infinite tol no longer reads any product as Hermitian."""
    pair = OverlapPair(np.array([[1.0, 2.0], [0.5, 3.0]]))
    assert criterion_product_hermitian(pair, 1.0) and not criterion_product_hermitian(pair, 0.1)
    with pytest.raises(ValueError, match="^tol "):
        criterion_product_hermitian(pair, tol)


@pytest.mark.parametrize("weights", [[0.0, 1.0, 1.0], [1e-320, 1.0, 1.0]])
def test_a_non_finite_overlap_product_is_a_value_error(weights, system_cache):
    """A zero weight divides by zero and a subnormal one overflows: no warning, no inf M."""
    system, data = system_cache(3), spectral_data(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="^M is not finite"):
        overlap_matrices(system, KappaVector(3, weights), data)
    pair = overlap_matrices(system, KappaVector(3, [-1.0, 1.0, 1.0]), data)
    assert np.isfinite(pair.M).all()


def test_no_overflow_warning_at_the_top_of_the_float_range():
    """An infinite gap is not degenerate, and an infinite asymmetry fails the criterion."""
    data = spectral_data(np.diag([1e308, -1e308]))
    np.testing.assert_array_equal(data.eigenvalues, [-1e308, 1e308])
    pair = OverlapPair(np.array([[1e308, -1e308], [1e308, 1e308]]))
    assert pair.hermiticity_residual == np.inf
    assert not criterion_product_hermitian(pair)


@pytest.mark.parametrize("a", [1e-320, 1e-310, 1.0, 2.0**1000, 1.5e308])
def test_criterion_verdict_is_scale_free_at_the_top_of_the_float_range(a):
    """M = [[0, a + ai], [-a + ai, 0]] has max|M - M^H| = 2 sqrt(2) a against max|M| = sqrt(2) a:
    not Hermitian at any a.  At a = 1.5e308 both moduli overflow, and inf <= tol inf read True;
    M is judged scaled by a power of two.  A Hermitian M of that size stays Hermitian.  At the
    bottom of the range, 1e-310 and 1e-320, the factor for a subnormal max|M| stays finite."""
    pair = OverlapPair(np.array([[0.0, a + a * 1j], [-a + a * 1j, 0.0]]))
    assert not criterion_product_hermitian(pair)
    assert criterion_product_hermitian(OverlapPair(a * np.array([[1.0, 1 + 1j], [1 - 1j, 0.5]])))


def test_criterion_forms_no_square_temporary(rng):
    """N = 1024, complex M: max|M| is read by 64-row blocks, 0.06 arrays of 8 N^2 bytes (1.00
    while |M| was formed whole)."""
    N = 1024
    pair = OverlapPair(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    _, peak = _traced_peak(lambda: criterion_product_hermitian(pair))
    assert peak <= 0.1 * 8 * N**2


def test_overlap_pair_derives_its_residual():
    assert OverlapPair(np.array([[1.0, 2.0], [0.5, 3.0]])).hermiticity_residual == 1.5
    assert OverlapPair(np.array([[1.0, 2.0j], [-2.0j, 3.0]])).hermiticity_residual == 0.0


@pytest.mark.parametrize(
    "M, message",
    [
        (np.array([1.0, 2.0]), "expected a nonempty square M"),
        (np.array(3.0), "expected a nonempty square M"),
        (np.ones((1, 3)), "expected a nonempty square M"),
        ([[1.0, 2.0, 3.0]], "expected a nonempty square M"),
        (np.zeros((0, 0)), "expected a nonempty square M"),
        (np.array([["1", "0"], ["0", "2"]]), "M must be numbers"),
        (np.array([[1.0, np.nan], [0.0, 2.0]]), "M is not finite"),
        (np.array([[1.0, 0.0], [np.inf * 1j, 2.0]]), "M is not finite"),
    ],
    ids=["vector", "scalar", "1x3", "1x3-list", "empty", "text", "nan", "complex-inf"],
)
def test_overlap_pair_checks_its_product(M, message):
    """M is checked when the pair is built, as a MetricOperator checks its matrix: a vector or a
    scalar no longer reads residual 0 ("Hermitian"), nor a 1 x 3 M a broadcast 3 x 3 residual."""
    with pytest.raises(ValueError, match=f"^{message}"):
        OverlapPair(M)


def test_overlap_pair_reads_a_list_and_integers_as_an_array():
    pair = OverlapPair([[1, 2], [0, 3]])
    assert pair.M.dtype == np.float64 and pair.hermiticity_residual == 2.0
    assert criterion_product_hermitian(OverlapPair([[1.0, 2.0j], [-2.0j, 3.0]]))


def test_overlap_pair_of_a_complex_product_forms_no_square_temporary(rng):
    """N = 1024: max|M - M^H| by blocks of 64 rows, about 0.27 arrays of 8 N^2 bytes beside M
    (forming M - M^H and its modulus read 4.0)."""
    N = 1024
    M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    _, peak = _traced_peak(lambda: OverlapPair(M))
    assert peak <= 0.5 * 8 * N**2


@pytest.mark.parametrize("kind, bound", [("real", 1.2), ("complex", 4.1)])
def test_dieudonne_residual_forms_one_product(kind, bound, rng):
    """N = 1024: Theta Lambda and the blocks of its asymmetry; a complex Lambda also casts Theta
    to complex (two products and their difference read 2.0 and 6.0 arrays)."""
    N = 1024
    Lam = rng.normal(size=(N, N))
    if kind == "complex":
        Lam = Lam + 1j * rng.normal(size=(N, N))
    theta = tridiagonal_metric(N, 0.3)
    _, peak = _traced_peak(lambda: dieudonne_residual(Lam, theta))
    assert peak <= bound * 8 * N**2


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("metric", ["Q", "slice", "kappa"])
@pytest.mark.parametrize("N", [3, 64, 256])
def test_one_product_residual_matches_two_products(N, metric, kind, system_cache, rng):
    """The oracle of the one-product form: max|Lambda^H Theta - Theta Lambda| / (max|Theta|
    max|Lambda|) from two numpy products.  The forms are equal in exact arithmetic for the exactly
    symmetric Theta of these three metrics; rounding may differ, within 4 eps of the scale."""
    if metric == "Q":
        theta = Q_metric(N)
    elif metric == "slice":
        theta = tridiagonal_metric(N, 0.3)
    else:
        system = system_cache(N)
        theta = metric_from_kappa(system, KappaVector(N, rng.uniform(0.5, 2.0, N) / system.q_norms))
    Lam = rng.normal(size=(N, N))
    if kind == "complex":
        Lam = Lam + 1j * rng.normal(size=(N, N))
    matrix = theta.matrix
    two = np.max(np.abs(Lam.conj().T @ matrix - matrix @ Lam))
    expected = two / (np.max(np.abs(matrix)) * np.max(np.abs(Lam)))
    assert abs(dieudonne_residual(Lam, theta) - expected) <= 4 * np.finfo(float).eps


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
        small = MetricOperator(scale * theta.matrix, theta.provenance)
        for candidate, observable in ((Lam, True), (bad, False)):
            residuals = [dieudonne_residual(scale * candidate, theta),
                         dieudonne_residual(candidate, small)]
            for residual in residuals:
                assert (residual <= 1e-10) == observable
            if not observable:
                np.testing.assert_allclose(residuals, dieudonne_residual(bad, theta), rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e-170, 1e-150, 1.0, 1e150, 1e160])
def test_dieudonne_residual_is_scale_free_across_the_float_range(scale):
    """Lambda and Theta far from 1 are scaled by powers of two first: the products neither
    underflow (a false 0 at 1e-170) nor overflow (no residual at 1e160), and a subnormal
    maximum gets a finite factor (an OverflowError at 1e-310 and 1e-320)."""
    Lam, theta = scale * np.array([[0.0, 1.0], [2.0, 0.0]]), MetricOperator(scale * np.eye(2))
    assert dieudonne_residual(Lam, theta) == 0.5
    assert dieudonne_residual(Lam, MetricOperator(np.eye(2))) == 0.5
    assert dieudonne_residual(np.array([[0.0, 1.0], [2.0, 0.0]]), theta) == 0.5


def test_dieudonne_residual_of_a_complex_entry_beyond_the_float_range():
    """|z| of a finite complex entry may overflow to inf; the scaling still applies."""
    Lam = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
    assert dieudonne_residual(Lam, MetricOperator(np.eye(2))) == pytest.approx(np.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("K", [np.ones(3), np.ones((3, 1)), np.ones((1, 3, 3)), 1.0])
def test_observable_from_hermitian_needs_a_square_K(K):
    with pytest.raises(ValueError, match="^K must be two-dimensional|^expected a nonempty square K"):
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
