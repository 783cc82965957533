import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import dense_hamiltonian
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlattice import (
    EvolutionState,
    KappaVector,
    MetricOperator,
    biorthogonal_system,
    build_hamiltonian,
    build_metric_Q,
    charge_operator,
    dieudonne_residual,
    exceptional_kappa,
    hidden_horizon_scan,
    horizon_gamma,
    kappa_from_metric,
    metric_from_kappa,
    observable_from_hermitian,
    roots_P,
    tridiagonal_metric,
)
from qtlattice.legendre import _jacobi
from qtlattice.metrics import (
    _as_symmetric,
    _cholesky_definiteness,
    classify_definiteness,
    tridiagonal_definiteness,
)
from qtlattice import tridiagonal
from qtlattice.tridiagonal import sturm_count


def gated(matrix):
    """Theta and the max|Theta| that its gate read: the arguments of either labelling path."""
    return _as_symmetric(matrix, "theta")


def dieudonne_max_residual(matrix, N):
    H = dense_hamiltonian(N)
    return np.max(np.abs(H.T @ matrix - matrix @ H))


def test_exceptional_kappa_small_cases(system_cache):
    np.testing.assert_allclose(exceptional_kappa(system_cache(1)).values, [2.0])
    np.testing.assert_allclose(
        exceptional_kappa(system_cache(2)).values, [1.0, 1.0], atol=1e-14
    )


@pytest.mark.parametrize("N", [2, 3, 8, 32])
def test_exceptional_metric_collapses_to_Q(N, system_cache):
    system = system_cache(N)
    theta = metric_from_kappa(system, exceptional_kappa(system))
    np.testing.assert_allclose(theta.matrix, np.diag(build_metric_Q(N)), atol=1e-12)
    assert theta.definiteness == "positive-definite"


def test_metric_linearity_in_kappa(system_cache):
    system = system_cache(3)
    kappa = exceptional_kappa(system)
    scaled = KappaVector(3, 7.0 * kappa.values)
    theta = metric_from_kappa(system, scaled)
    np.testing.assert_allclose(theta.matrix, 7.0 * np.diag(build_metric_Q(3)), atol=1e-11)


def test_metric_from_kappa_symmetric_and_dieudonne(system_cache):
    system = system_cache(3)
    theta = metric_from_kappa(system, KappaVector(3, np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(theta.matrix, theta.matrix.T, atol=1e-13)
    assert dieudonne_max_residual(theta.matrix, 3) <= 1e-12


def test_nonpositive_kappa_is_rejected(system_cache):
    for bad in (-1.0, 0.0):
        with pytest.raises(ValueError, match="strictly positive"):
            metric_from_kappa(system_cache(2), KappaVector(2, np.array([1.0, bad])))


def test_dimension_mismatch_rejected(system_cache):
    with pytest.raises(ValueError):
        metric_from_kappa(system_cache(3), KappaVector(2, np.ones(2)))


@pytest.mark.parametrize("N", range(2, 17))
def test_random_kappa_family(N, system_cache, rng):
    system = system_cache(N)
    for _ in range(50):
        kappa = KappaVector(N, rng.uniform(0.1, 5.0, N))
        theta = metric_from_kappa(system, kappa)
        assert theta.definiteness == "positive-definite"
        assert dieudonne_max_residual(theta.matrix, N) <= 1e-11 * np.max(np.abs(theta.matrix))
        recovered = kappa_from_metric(system, theta)
        np.testing.assert_allclose(recovered.values, kappa.values, rtol=1e-10)


def test_metric_from_kappa_peaks_at_three_arrays(system_cache):
    """At N = 256, the product B B^T and the shifted copy and factor of its Cholesky label:
    about 3 arrays of 8 N^2 bytes (4 while the scaled Q kets B are held to the end)."""
    N = 256
    system = system_cache(N)
    kappa = exceptional_kappa(system)
    tracemalloc.start()
    try:
        metric_from_kappa(system, kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * 8 * N**2 <= peak <= 3.2 * 8 * N**2


@pytest.mark.parametrize("N", [5, 64, 256])
def test_kappa_metric_is_exactly_symmetric(N, system_cache, rng):
    """Theta = B B^T is one symmetric product: equal to its transpose bit for bit, with no
    symmetrization pass."""
    system = system_cache(N)
    theta = metric_from_kappa(system, KappaVector(N, rng.uniform(0.5, 2.0, N) / system.q_norms))
    np.testing.assert_array_equal(theta.matrix, theta.matrix.T)


def test_charge_trivial_cases(system_cache):
    Q = build_metric_Q(3)
    theta_Q = MetricOperator(np.diag(Q), "diagonal-Q")
    C = charge_operator(Q, theta_Q)
    np.testing.assert_array_equal(C.matrix, np.eye(3))

    system = system_cache(3)
    theta = metric_from_kappa(system, exceptional_kappa(system))
    C = charge_operator(Q, theta)
    assert np.max(np.abs(C.matrix - np.eye(3))) <= 1e-11


def test_charge_nontrivial_off_exceptional(system_cache):
    system = system_cache(3)
    kappa = exceptional_kappa(system).values.copy()
    kappa[0] *= 2.0
    theta = metric_from_kappa(system, KappaVector(3, kappa))
    C = charge_operator(build_metric_Q(3), theta)
    assert np.max(np.abs(C.matrix - np.eye(3))) > 1e-6


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_charge_similar_to_kappa_n_diagonal(N, system_cache, rng):
    system = system_cache(N)
    kappa = KappaVector(N, rng.uniform(0.3, 2.0, N))
    theta = metric_from_kappa(system, kappa)
    C = charge_operator(build_metric_Q(N), theta)
    eigenvalues = np.sort(np.linalg.eigvals(C.matrix).real)
    expected = np.sort(kappa.values * system.q_norms)
    np.testing.assert_allclose(eigenvalues, expected, atol=1e-9)


@pytest.mark.parametrize(
    "entry, message",
    [(0.0, "positive"), (-1.5, "positive"), (np.inf, "finite"), (-np.inf, "finite")],
)
def test_charge_operator_requires_a_finite_positive_q(entry, message):
    theta = MetricOperator(np.diag(build_metric_Q(3)), "diagonal-Q")
    with pytest.raises(ValueError, match=f"^q .*{message}"):
        charge_operator([0.5, entry, 2.5], theta)


def test_charge_operator_requires_theta_of_the_size_of_q():
    theta = tridiagonal_metric(3, 0.1)
    with pytest.raises(ValueError, match="dimension mismatch between Q and theta"):
        charge_operator(build_metric_Q(2), theta)


def test_kappa_from_metric_identities(system_cache):
    system = system_cache(4)
    Q = MetricOperator(np.diag(build_metric_Q(4)), "diagonal-Q")
    np.testing.assert_allclose(
        kappa_from_metric(system, Q).values, exceptional_kappa(system).values, rtol=1e-12
    )
    Q3 = MetricOperator(3.0 * np.diag(build_metric_Q(4)))
    np.testing.assert_allclose(
        kappa_from_metric(system, Q3).values,
        3.0 * exceptional_kappa(system).values,
        rtol=1e-12,
    )
    # the tridiagonal member inside the horizon projects to positive weights
    kappa = kappa_from_metric(system, tridiagonal_metric(4, 0.1))
    assert np.all(kappa.values > 0)


def test_kappa_from_metric_rejects_non_members(system_cache):
    bad = MetricOperator(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        kappa_from_metric(system_cache(3), bad)


def test_tridiagonal_metric_values():
    np.testing.assert_array_equal(
        tridiagonal_metric(2, 0.0).matrix, [[0.5, 0.0], [0.0, 1.5]]
    )
    np.testing.assert_array_equal(
        tridiagonal_metric(2, 0.5).matrix, [[0.5, 0.5], [0.5, 1.5]]
    )
    with pytest.raises(ValueError):
        tridiagonal_metric(1, 0.1)


@pytest.mark.parametrize("alpha", [-2.0, -0.3, 0.0, 0.7, 5.0])
def test_tridiagonal_metric_always_intertwines(alpha):
    theta = tridiagonal_metric(4, alpha)
    assert dieudonne_max_residual(theta.matrix, 4) <= 1e-13 * max(1.0, abs(alpha))


def test_tridiagonal_metric_is_q_plus_alpha_t():
    theta = tridiagonal_metric(5, 0.25)
    t = np.array([1.0, 2.0, 3.0, 4.0])
    expected = np.diag(build_metric_Q(5)) + 0.25 * (np.diag(t, 1) + np.diag(t, -1))
    np.testing.assert_array_equal(theta.matrix, expected)
    assert (theta.dimension, theta.provenance) == (5, "tridiagonal-family")
    assert not np.signbit(tridiagonal_metric(5, -0.0).matrix).any()


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 2)])
def test_tridiagonal_metric_takes_one_alpha(shape):
    with pytest.raises(ValueError, match="alpha must be one number"):
        tridiagonal_metric(3, np.full(shape, 0.1))


def test_slice_stack_holds_the_single_matrices():
    from qtlattice.metrics import _slice, _slice_matrix

    alphas = np.array([[-0.7, 0.0], [0.3, 2.0]])
    stack = _slice_matrix(*_slice(6, alphas))
    assert stack.shape == (2, 2, 6, 6)
    for index in np.ndindex(alphas.shape):
        np.testing.assert_array_equal(stack[index], tridiagonal_metric(6, alphas[index]).matrix)


def test_definiteness_classification():
    assert classify_definiteness(*gated(np.diag([0.5, 1.5]))) == "positive-definite"
    assert tridiagonal_metric(2, 0.8660254037844386).definiteness == "singular"
    assert tridiagonal_metric(2, 1.0).definiteness == "indefinite"
    assert classify_definiteness(*gated(tridiagonal_metric(2, 0.5).matrix)) == "positive-definite"


def test_metric_operator_rejects_asymmetric():
    with pytest.raises(ValueError, match="^theta is not symmetric"):
        MetricOperator([[1.0, 5.0], [0.0, 1.0]], "x")


def test_metric_operator_labels_itself():
    """No caller sets the label: an indefinite Theta reads indefinite whatever its provenance."""
    assert MetricOperator(np.diag([1.0, -1.0]), "x").definiteness == "indefinite"
    assert MetricOperator(np.zeros((2, 2))).definiteness == "singular"
    theta = MetricOperator(np.diag(build_metric_Q(3)), "diagonal-Q")
    assert (theta.dimension, theta.definiteness) == (3, "positive-definite")


def test_symmetry_gate_is_scale_invariant(rng):
    """max|M - M^T| <= 1e-12 max|M| has no floor: c M passes exactly when M does."""
    S = rng.normal(size=(4, 4))
    S = S + S.T
    skewed = S + 1e-10 * rng.normal(size=(4, 4))
    theta = tridiagonal_metric(4, 0.1)
    for scale in (1.0, 1e-6, 1e-12):
        assert MetricOperator(scale * S).definiteness == MetricOperator(S).definiteness
        observable_from_hermitian(scale * S, theta)
        with pytest.raises(ValueError, match="not symmetric"):
            MetricOperator(scale * skewed)
        with pytest.raises(ValueError, match="not symmetric"):
            observable_from_hermitian(scale * skewed, theta)


def test_definiteness_label_is_scale_invariant():
    """thr = 1e-12 max|Theta| has no floor, on the dense and on the Sturm path.  Below 2^-250 the
    squared couplings underflowed, and every Sturm label read positive-definite from 1e-170 on."""
    N = 4
    q, t = build_metric_Q(N), np.arange(1.0, N)
    gamma = 0.5 / np.linalg.eigvals(dense_hamiltonian(N)).real.max()
    alphas = np.array([0.0, 0.5 * gamma, -0.9 * gamma, gamma, 1.1 * gamma, -3 * gamma])
    reflection = np.eye(3) - 2 / 3  # I - 2 v v^T / v^T v for v = (1, 1, 1)
    spectra = ([1.0, 2.0, 4.0], [2.0, 0.0, 1.0], [1.0, -1.0, 2.0])
    dense = [reflection @ np.diag(spectrum) @ reflection for spectrum in spectra]
    assert all(theta[0, 2] for theta in dense)  # off the band: the Cholesky path
    expected = ["positive-definite", "singular", "indefinite"]
    sturm = tridiagonal_definiteness(q, np.multiply.outer(t, alphas)).tolist()
    assert sturm == ["positive-definite"] * 3 + ["singular"] + ["indefinite"] * 2
    for scale in (1.0, 1e-6, 1e-12, 1e-170, 1e-200, 1e-300, 1e170, 1e300):
        assert [classify_definiteness(*gated(scale * theta)) for theta in dense] == expected
        assert tridiagonal_definiteness(scale * q, scale * np.multiply.outer(t, alphas)).tolist() == sturm
        assert [str(tridiagonal_definiteness(scale * q, scale * alpha * t)) for alpha in alphas] == sturm


@pytest.mark.parametrize("N, alpha", [(8, 2.0), (64, 1.0)])
def test_no_tiny_indefinite_banded_theta_is_positive_definite(N, alpha):
    """Theta(alpha) beyond the horizon is indefinite at every scale (positive-definite from
    1e-170 on while the squared couplings underflowed)."""
    theta = tridiagonal_metric(N, alpha).matrix
    for scale in (1.0, 1e-160, 1e-170, 1e-200, 1e-300, 1e-310, 1e170, 1e300):
        assert MetricOperator(scale * theta).definiteness == "indefinite"


def test_zero_metric_reads_singular_on_both_paths():
    # thr = 0: the Sturm counts at +-0 count every zero pivot as negative
    assert str(tridiagonal_definiteness(np.zeros(3), np.zeros(2))) == "singular"
    assert tridiagonal_definiteness(np.zeros(3), np.zeros((2, 4))).tolist() == ["singular"] * 4
    zero = np.zeros((3, 3))
    assert classify_definiteness(*gated(zero)) == _cholesky_definiteness(*gated(zero)) == "singular"
    assert MetricOperator(np.zeros((1, 1))).definiteness == "singular"
    # 1e-12 max|Theta| would underflow to 0 here; read after the rescale, thr keeps its margin
    tiny = np.array([1e-315, -1e-315])
    assert str(tridiagonal_definiteness(tiny, np.zeros(1))) == "indefinite"
    diagonal = gated(np.diag(tiny))
    assert classify_definiteness(*diagonal) == _cholesky_definiteness(*diagonal) == "indefinite"
    assert classify_definiteness(*gated(np.full((3, 3), -1e-315))) == "indefinite"
    # v v^T + w w^T, v = (1, 1, 2), w = (2, 0, 0): singular (positive-definite while thr underflowed)
    rank_two = 2.0**-1060 * np.array([[5.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 4.0]])
    assert classify_definiteness(*gated(rank_two)) == "singular"
    # the Sturm path: the squared coupling underflowed, and at thr = 0 the zero pivot counts below
    assert classify_definiteness(*gated(np.full((2, 2), 2.0**-1060))) == "singular"


def test_a_diagonal_at_the_top_of_the_float_range_is_labelled_without_a_warning():
    """Theta -+ thr I overflows on the diagonal where every entry is the float maximum (spectra
    {3 max, 0, 0} and its negative): the labels are the rule's, and no RuntimeWarning leaks."""
    top = np.full((3, 3), np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MetricOperator(top).definiteness == "singular"
        assert MetricOperator(-top).definiteness == "indefinite"


def test_dense_labels_run_no_eigensolver(monkeypatch):
    """ones - 2I, ones and ones + I (spectra {1, -2, -2}, {3, 0, 0}, {4, 1, 1}) take the
    Cholesky path: two factorizations, at -thr and +thr, for the indefinite and the singular
    one, and one for the positive-definite one."""

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, no_eigensolver)
    cholesky, calls = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda matrix: calls.append(1) or cholesky(matrix))
    ones = np.ones((3, 3))
    cases = [(-2.0, "indefinite", 2), (0.0, "singular", 2), (1.0, "positive-definite", 1)]
    for shift, label, factorizations in cases:
        calls.clear()
        assert MetricOperator(ones + shift * np.eye(3)).definiteness == label
        assert len(calls) == factorizations


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.05, max_value=10.0, allow_nan=False), min_size=2, max_size=6
    )
)
def test_positive_kappa_always_positive_definite(values):
    from qtlattice import biorthogonal_system

    N = len(values)
    system = biorthogonal_system(N)
    theta = metric_from_kappa(system, KappaVector(N, np.array(values)))
    assert theta.definiteness == "positive-definite"


def _dense_tridiagonal(diagonal, offdiagonal):
    return np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)


@pytest.mark.parametrize("N", [2, 3, 8, 64, 256])
def test_sturm_and_cholesky_paths_agree_on_the_slice(N):
    """301 alpha over +-3 gamma, +-gamma and the floats next to gamma: both paths, one label."""
    gamma = horizon_gamma(N).gamma
    alphas = [*np.linspace(-3 * gamma, 3 * gamma, 301), gamma, -gamma]
    alphas += [np.nextafter(gamma, 0.0), np.nextafter(gamma, 1.0)]
    for alpha in alphas:
        theta = tridiagonal_metric(N, float(alpha))
        assert theta.definiteness == _cholesky_definiteness(*gated(theta.matrix)), alpha


def test_sturm_and_cholesky_paths_agree_on_random_band_matrices(rng):
    """Diagonal and tridiagonal matrices, a third of them singular, at scales 1e-6 to 1e6."""
    labels = []
    for _ in range(400):
        N = int(rng.integers(1, 13))
        diagonal, offdiagonal = rng.normal(size=N), rng.normal(size=N - 1) * rng.integers(0, 2)
        if rng.random() < 1 / 3:  # an eigenvalue at zero, up to rounding
            diagonal -= np.linalg.eigvalsh(_dense_tridiagonal(diagonal, offdiagonal))[rng.integers(N)]
        theta = 10.0 ** rng.uniform(-6, 6) * _dense_tridiagonal(diagonal, offdiagonal)
        threshold, smallest = 1e-12 * np.max(np.abs(theta)), np.linalg.eigvalsh(theta)[0]
        slack = 64 * N * np.finfo(float).eps * np.max(np.sum(np.abs(theta), axis=1))
        if min(abs(smallest - threshold), abs(smallest + threshold)) <= slack:
            continue  # too close to +-thr for eigvalsh to say which side
        expected = "positive-definite" if smallest > threshold else "indefinite"
        expected = "singular" if abs(smallest) <= threshold else expected
        gate = gated(theta)
        assert classify_definiteness(*gate) == _cholesky_definiteness(*gate) == expected
        labels.append(expected)
    assert len(labels) > 300 and set(labels) == {"positive-definite", "singular", "indefinite"}


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 1024])
def test_sturm_labels_match_dense_eigvalsh(N, rng):
    q = np.arange(N) + 0.5
    t = np.arange(1, N, dtype=float)
    alphas = [float(rng.uniform(0.1, 2.0)), -float(rng.uniform(0.1, 2.0))]
    if N >= 2:
        S = _dense_tridiagonal(np.zeros(N), t / np.sqrt(q[:-1] * q[1:]))
        gamma = 1.0 / np.linalg.eigvalsh(S)[-1]
        alphas = [gamma * rng.uniform(0.2, 1.8), -gamma * rng.uniform(0.2, 1.8)]
        alphas += [gamma * (1 - 1e-9), gamma * (1 + 1e-9)]
    expected = []
    for alpha in alphas:
        theta = _dense_tridiagonal(q, alpha * t)
        threshold = 1e-12 * np.max(np.abs(theta))
        smallest = np.linalg.eigvalsh(theta)[0]
        # eigvalsh error bound; the cases are chosen clear of the +-thr ties
        slack = 64 * N * np.finfo(float).eps * np.max(np.sum(np.abs(theta), axis=1))
        assert min(abs(smallest - threshold), abs(smallest + threshold)) > slack
        if smallest > threshold:
            expected.append("positive-definite")
        else:
            expected.append("singular" if smallest >= -threshold else "indefinite")
    scalar = [str(tridiagonal_definiteness(q, alpha * t)) for alpha in alphas]
    batched = tridiagonal_definiteness(q, np.multiply.outer(t, alphas)).tolist()
    assert scalar == batched == expected
    if N >= 2:
        assert expected[2:] == ["positive-definite", "indefinite"]


_entries = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))


@settings(max_examples=100, deadline=None)
@given(
    diagonal=st.lists(_entries, min_size=1, max_size=8),
    offdiagonal=st.lists(_entries, min_size=7, max_size=7),
    shifts=st.lists(_entries, min_size=1, max_size=4),
)
def test_sturm_count_matches_eigvalsh(diagonal, offdiagonal, shifts):
    N = len(diagonal)
    offdiagonal = offdiagonal[: N - 1]
    eigenvalues = np.linalg.eigvalsh(_dense_tridiagonal(diagonal, offdiagonal))
    shifts = [s for s in shifts if np.min(np.abs(eigenvalues - s)) > 1e-9]
    expected = [int(np.sum(eigenvalues < s)) for s in shifts]
    assert [sturm_count(diagonal, offdiagonal, s) for s in shifts] == expected
    assert sturm_count(diagonal, offdiagonal, np.array(shifts)).tolist() == expected


@pytest.mark.parametrize("batched", [False, True])
def test_sturm_count_zero_pivots(batched):
    def count(diagonal, offdiagonal):
        shift = np.zeros(1) if batched else 0.0
        return int(np.squeeze(sturm_count(diagonal, offdiagonal, shift)))

    # d_0 = 0 continues as -pivmin; eigenvalues (1 -+ sqrt 5)/2
    assert count([0.0, 1.0], [1.0]) == 1
    # d_1 = 0 then a huge d_2; eigenvalues in (-1, 0), (0, 1), (2, 3)
    assert count([1.0, 1.0, 0.0], [1.0, 1.0]) == 1
    # d_1 = 0 before a zero coupling: eigenvalues 0, 2, 2, and the one
    # at the shift counts as below it
    assert count([1.0, 1.0, 2.0], [1.0, 0.0]) == 1


def test_sturm_count_huge_entries_exact():
    # squares of 1e200 overflow; the power-of-two scaling keeps the count exact
    assert sturm_count([1e200, 3e200], [1e200], 0.0) == 0
    assert sturm_count([1e200, 3e200], [2e200], 0.0) == 1
    assert tridiagonal_metric(3, 1e200).definiteness == "indefinite"


@pytest.mark.parametrize("c", [1e-300, 1e-170, 1e300])
def test_sturm_count_is_scale_free_across_the_float_range(c):
    """c J below c x counts as J below x, in the scalar and in the batched loop: J of P_16, whose
    roots are the eigenvalues (16 below 0.5 at c = 1e-170 while the squares underflowed)."""
    diagonal, offdiagonal = _jacobi(16)
    shifts = np.array([-0.99, -0.5, 0.0, 0.5, 0.99])
    expected = [int(np.sum(roots_P(16).roots < x)) for x in shifts]
    assert expected == [0, 5, 8, 11, 16]
    assert [sturm_count(c * diagonal, c * offdiagonal, c * x) for x in shifts] == expected
    assert sturm_count(c * diagonal, c * offdiagonal, c * shifts).tolist() == expected


def test_sturm_count_scales_each_matrix_of_a_batch_by_its_own_power_of_two():
    """16 copies of a T of size 16 at 2^k, k from -1000 to 1000, in one batch as long as T: the
    diagonal carries the batch axis, and each copy below 2^k x counts as T below x (one factor
    for the whole batch would let the squared couplings of the small copies underflow)."""
    diagonal, offdiagonal = np.arange(16) + 0.5, 0.6 * np.arange(1.0, 16)
    eigenvalues = np.linalg.eigvalsh(_dense_tridiagonal(diagonal, offdiagonal))
    shifts = [eigenvalues[0] - 1, *(eigenvalues[1:] + eigenvalues[:-1]) / 2, eigenvalues[-1] + 1]
    c = 2.0 ** np.linspace(-1000, 1000, 16).round()
    scaled = [np.multiply.outer(x, c) for x in (diagonal, offdiagonal)]
    for expected, x in enumerate(shifts):
        assert sturm_count(diagonal, offdiagonal, x) == expected
        assert sturm_count(*scaled, c * x).tolist() == [expected] * 16


@pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("N", [1, 2, 64])
def test_sturm_count_of_one_matrix_at_many_shifts_is_the_counts_alone(N, c, monkeypatch):
    """One matrix at up to 32 shifts runs the Python-float loop once per shift, and at more the
    batched loop; either way the counts are those of the shifts one at a time, as int arrays of
    the shifts' shape.  S from 1 to 64, and the 2N shifts x_j -+ 1e-12 of the roots' certificate,
    on c J of P_N (the diagonal is zero, so J has an eigenvalue at 0 when N is odd)."""
    passes = []
    float_count = tridiagonal._float_count

    def counting_passes(*row):
        passes.append(len(row[0]))
        return float_count(*row)

    monkeypatch.setattr(tridiagonal, "_float_count", counting_passes)
    diagonal, offdiagonal = (c * x for x in _jacobi(N))
    roots = roots_P(N).roots
    grids = [np.linspace(-1.0, 1.0, S) for S in (1, 2, 31, 32, 33, 64)]
    for shifts in [*grids, np.concatenate((roots - 1e-12, roots + 1e-12))]:
        shifts = c * shifts
        alone = [sturm_count(diagonal, offdiagonal, x) for x in shifts]
        passes.clear()
        counts = sturm_count(diagonal, offdiagonal, shifts)
        assert passes == ([N] * len(shifts) if len(shifts) <= 32 else [])
        assert counts.dtype == int and counts.tolist() == alone
    assert alone == list(range(N)) + list(range(1, N + 1))
    grid = c * np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    alone = [[sturm_count(diagonal, offdiagonal, x) for x in row] for row in grid]
    assert sturm_count(diagonal, offdiagonal, grid).tolist() == alone


def test_each_maximum_is_read_once(rng, monkeypatch):
    """`_largest` reads max|Theta| once for a dense `MetricOperator` (its gate and its label),
    max|Theta| and max|Lambda| once each for a Dieudonne residual at ordinary scale, and max|K|
    once per scan (its gate and its crossing threshold): 2, 4 and 2 reads before."""
    from qtlattice import horizons, metrics, observables

    calls, largest = [], metrics._largest
    for module in (metrics, observables, horizons):
        if hasattr(module, "_largest"):
            monkeypatch.setattr(module, "_largest", lambda M: calls.append(M.shape) or largest(M))
    B = rng.normal(size=(64, 64))
    theta = MetricOperator(B @ B.T)
    assert (calls, theta.definiteness) == ([(64, 64)], "positive-definite")
    calls.clear()
    dieudonne_residual(rng.normal(size=(64, 64)), theta)
    assert calls == [(64, 64)] * 2
    calls.clear()
    hidden_horizon_scan(8, np.diag(np.arange(1.0, 9.0)), [0.3, 2.0])
    assert calls == [(8, 8)]


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize(
    "diagonal, offdiagonal, shift, what",
    [
        (np.array(["-1", "2"]), ["0.5"], "0", "the diagonal"),
        (np.array([1 + 5j, 2]), [0.5], 0.0, "the diagonal"),
        (np.array([-1.0, 2.0], dtype=object), [0.5], 0.0, "the diagonal"),
        ([1.0, 2.0], [[0.5], [0.5, 0.5]], 0.0, "the off-diagonal"),
        ([1.0, 2.0], [0.5], "0", "the shift"),
        ([1.0, 2.0], [0.5], 1j, "the shift"),
    ],
    ids=["text", "complex", "object", "ragged", "text-shift", "complex-shift"],
)
def test_sturm_count_takes_real_numbers_only(diagonal, offdiagonal, shift, what, batched):
    with pytest.raises(ValueError, match=f"^{what} must be real numbers"):
        sturm_count(diagonal, offdiagonal, np.full(2, shift) if batched else shift)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_a_domain_error(bad, system_cache):
    with pytest.raises(ValueError, match="is not finite"):
        sturm_count([1.0, bad], [0.5], 0.0)
    with pytest.raises(ValueError, match="is not finite"):
        sturm_count([1.0, 2.0], [bad], 0.0)
    with pytest.raises(ValueError, match="is not finite"):
        sturm_count([1.0, 2.0], [0.5], np.array([0.0, bad]))
    with pytest.raises(ValueError, match="theta is not finite"):
        MetricOperator(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError):
        tridiagonal_metric(3, bad)
    with pytest.raises(ValueError):
        metric_from_kappa(system_cache(2), KappaVector(2, np.array([1.0, bad])))


@pytest.mark.parametrize("N", [2, 8, 64, 1024])
def test_coupling_matrix_is_twice_QH(N):
    T = tridiagonal_metric(N, 1.0).matrix - np.diag(build_metric_Q(N))
    QH = build_metric_Q(N)[:, None] * dense_hamiltonian(N)
    assert np.max(np.abs(T - 2 * QH)) <= 4 * np.finfo(float).eps * np.max(np.abs(T))


@pytest.mark.parametrize("alpha", [-0.7, 0.3, 2.0])
@pytest.mark.parametrize("N", [4, 16, 64])
def test_tridiagonal_slice_kappa_is_one_plus_two_alpha_E(N, alpha, system_cache):
    """Theta(alpha) psi_j = (1 + 2 alpha E_j) Q psi_j, so kappa_j = (1 + 2 alpha E_j)/n_j."""
    system = system_cache(N)
    kappa = kappa_from_metric(system, tridiagonal_metric(N, alpha)).values
    expected = (1 + 2 * alpha * system.eigenvalues.roots) / system.q_norms
    np.testing.assert_allclose(kappa, expected, rtol=1e-13)


@pytest.mark.parametrize("alpha", [-0.7, 0.3])
@pytest.mark.parametrize("N", [2, 8, 64])
def test_tridiagonal_charge_is_one_plus_two_alpha_H(N, alpha):
    C = charge_operator(build_metric_Q(N), tridiagonal_metric(N, alpha)).matrix
    expected = np.eye(N) + 2 * alpha * dense_hamiltonian(N)
    np.testing.assert_allclose(C, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [2, 8, 64, 257])
def test_banded_residual_matches_dense(N, rng):
    from qtlattice.metrics import _hamiltonian_residual

    H = build_hamiltonian(N)
    random = rng.normal(size=(N, N))
    for matrix in (random + random.T, tridiagonal_metric(N, 0.3).matrix):
        theta = MetricOperator(matrix)
        # both are divided by max|Theta| max|H|, with no floor: within 8 eps of that scale
        gap = abs(_hamiltonian_residual(H, theta) - dieudonne_residual(dense_hamiltonian(N), theta))
        assert gap <= 8 * np.finfo(float).eps


def test_kappa_from_metric_rejects_nan_metric():
    """A NaN Theta is rejected when it is built, before any use."""
    matrix = np.diag(build_metric_Q(3))
    matrix[0, 0] = np.nan
    with pytest.raises(ValueError, match="theta is not finite"):
        MetricOperator(matrix)


def test_kappa_from_metric_requires_theta_of_the_size_of_the_system(system_cache):
    with pytest.raises(ValueError, match="dimension mismatch between H and theta"):
        kappa_from_metric(system_cache(3), tridiagonal_metric(4, 0.1))


@pytest.mark.parametrize(
    "matrix", [np.ones(3), np.ones((2, 3)), np.zeros((0, 0)), 1.0, np.ones((2, 2, 2))]
)
def test_metric_operator_rejects_non_square_shapes(matrix):
    with pytest.raises(ValueError, match="^(expected a nonempty square theta|theta must be two-dim)"):
        MetricOperator(matrix)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), "3", None])
@pytest.mark.parametrize(
    "call",
    [build_hamiltonian, build_metric_Q, lambda N: tridiagonal_metric(N, 0.1),
     lambda N: KappaVector(N, np.ones(3))],
)
def test_sizes_must_be_integers(call, bad):
    with pytest.raises(ValueError, match="integer"):
        call(bad)


def test_numpy_integer_sizes_are_ints():
    assert type(build_hamiltonian(np.int64(4)).dimension) is int
    assert tridiagonal_metric(np.int32(3), 0.1).dimension == 3
    assert type(KappaVector(np.int64(3), [1.0, 2.0, 3.0]).dimension) is int
    assert type(EvolutionState(np.int32(2), [1.0, 0.0]).dimension) is int


def test_kappa_from_metric_gate_is_1e_10(system_cache):
    """A Theta whose intertwining residual lies between 1e-10 and 1e-9 is rejected."""
    from qtlattice.metrics import _hamiltonian_residual

    matrix = np.diag(build_metric_Q(3))
    matrix[0, 0] += 1.25e-9  # residual 1.25e-9 / max|Q| = 5e-10, since max|H| = H[0, 1] = 1
    theta = MetricOperator(matrix)
    assert 1e-10 < _hamiltonian_residual(build_hamiltonian(3), theta) < 1e-9
    with pytest.raises(ValueError, match="intertwine"):
        kappa_from_metric(system_cache(3), theta)


def _peak_arrays(call, N):
    """The peak of the memory that tracemalloc traced while call() ran, in arrays of 8 N^2 bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * N**2)
    finally:
        tracemalloc.stop()


def test_symmetry_gate_forms_no_square_temporary():
    """N = 1024: the gate reads max|M - M^T| by row blocks and max|M| as max(max M, -min M), so
    building the slice's Theta holds no N x N array (forming M - M^T and |M| read 2.0)."""
    N = 1024
    matrix = tridiagonal_metric(N, 0.3).matrix
    assert _peak_arrays(lambda: MetricOperator(matrix), N) <= 0.2


def test_banded_residual_holds_theta_h_and_one_band_product():
    """N = 1024: Theta H and 64-row blocks of the second band product and of the asymmetry, 1.13
    arrays of 8 N^2 bytes (2.01 with that product formed whole).  The residual is bit for bit
    the one of the whole band products."""
    from qtlattice.metrics import _hamiltonian_residual

    N = 1024
    theta, H = tridiagonal_metric(N, 0.3), build_hamiltonian(N)
    assert _peak_arrays(lambda: _hamiltonian_residual(H, theta), N) <= 1.2
    product = np.zeros((N, N))
    product[:, 1:] = theta.matrix[:, :-1] * H.superdiagonal
    product[:, :-1] += theta.matrix[:, 1:] * H.subdiagonal
    expected = np.max(np.abs(product - product.T)) / np.max(np.abs(theta.matrix))
    assert _hamiltonian_residual(H, theta) == expected  # max|H| = H[0, 1] = 1


@pytest.mark.parametrize("N", [1, 63, 64, 65, 130])
def test_largest_is_the_blocked_max_abs(N, rng):
    """_largest is max|M| bit for bit, by max(max M, -min M) for a real M and by 64-row blocks
    for a complex one, its largest entry in the last block or not; a finite complex entry whose
    modulus overflows reads inf."""
    from qtlattice.metrics import _largest

    for M in (rng.normal(size=(N, N)), rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))):
        assert _largest(M) == np.max(np.abs(M))
        M[-1, 0] = -10.0
        assert _largest(M) == np.max(np.abs(M)) == 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _largest(np.full((N, N), 1.5e308 + 1.5e308j)) == np.inf


def test_an_overflowing_residual_fails_every_gate():
    """Band products of a Theta near the top of the float range overflow, and inf - inf is NaN:
    a maximum that drops a NaN, such as Python's max, reads 0, so such a Theta passes the
    intertwining gate and kappa_from_metric overflows.  An overflowing M - M^T is inf.  No
    RuntimeWarning leaks."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="does not intertwine"):
            kappa_from_metric(biorthogonal_system(3), MetricOperator(np.full((3, 3), 1.7e308)))
        with pytest.raises(ValueError, match="^theta is not symmetric"):
            MetricOperator(np.array([[1e308, -1e308], [1e308, 1e308]]))


@pytest.mark.parametrize("N", [3, 130])
def test_the_blocked_maximum_keeps_a_nan_of_any_block(N):
    """Theta H overflows to inf at (N-2, N-2), where the asymmetry reads inf - inf = NaN: in the
    one block at N = 3, in the last of three blocks of 64 rows at N = 130.  The residual is NaN."""
    from qtlattice.metrics import _hamiltonian_residual

    matrix = np.diag(build_metric_Q(N))
    matrix[-3:, -3:] = np.finfo(float).max
    np.fill_diagonal(matrix[-3:, -3:], 1.7e308)  # the shifts of the Cholesky label stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_hamiltonian_residual(build_hamiltonian(N), MetricOperator(matrix)))
