import tracemalloc

import numpy as np
import pytest
from conftest import dense_hamiltonian

from qtlattice import (
    EvolutionState,
    KappaVector,
    MetricOperator,
    RootSet,
    build_hamiltonian,
    build_metric_Q,
    lattice,
    metric_from_kappa,
    biorthogonal_system,
    norm_drift,
    norm_trajectory,
    propagator,
    theta_norm,
    tridiagonal_metric,
)


def Q_metric(N):
    return MetricOperator(np.diag(build_metric_Q(N)), "diagonal-Q")


def test_propagator_at_zero_is_identity():
    np.testing.assert_array_equal(propagator(build_hamiltonian(3), 0.0), np.eye(3))


def test_repeated_propagators_build_the_system_once(monkeypatch):
    build, calls = lattice.ket, []
    monkeypatch.setattr(lattice, "ket", lambda N, E: calls.append(N) or build(N, E))
    H = build_hamiltonian(64)
    first = propagator(H, 0.1)
    for t in np.linspace(0.2, 5.0, 149):
        propagator(H, t)
    assert calls == [64]
    np.testing.assert_array_equal(propagator(H, 0.1), first)


def test_propagator_single_site():
    np.testing.assert_allclose(propagator(build_hamiltonian(1), 2.7), [[1.0]], atol=1e-15)


def test_propagator_phase_at_special_time():
    U = propagator(build_hamiltonian(2), np.pi * np.sqrt(3))
    np.testing.assert_allclose(np.linalg.eigvals(U), [-1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("N", [2, 5, 16])
def test_group_property(N):
    H = build_hamiltonian(N)
    t1, t2 = 0.7, 2.3
    np.testing.assert_allclose(
        propagator(H, t1) @ propagator(H, t2), propagator(H, t1 + t2), atol=1e-11
    )


@pytest.mark.parametrize("N, t", [(16, 1.0), (64, 3.0), (256, 10.0), (256, 0.3)])
def test_propagator_row_zero_is_rayleighs_plane_wave_expansion(N, t):
    """exp(-ixt) = sum_n (2n+1) (-i)^n j_n(t) P_n(x) (DLMF 10.60.7), and H is the transpose of
    multiplication by x in the Legendre basis, so row 0 of exp(-iHt) is (2n+1) (-i)^n j_n(t),
    up to a truncation that is negligible for n < min(N, 2t + 40).  The oracle shares no code
    with the eigensystem.

    Error model.  U[0, n] = q_n sum_j (f_j / n_j) P_n(E_j) is a Gauss sum whose terms add up in
    modulus to at most sqrt(2n+1) (Cauchy-Schwarz, the quadrature being exact for P_n^2).  Each
    term carries relative rounding of a few eps from f, 1/n_j and the Legendre recurrence, so
    the error is a small multiple of eps (2n+1): at most 3.0 eps (2n+1) here, 1.3e-15 to 7.0e-15
    absolute.  The bound 16 eps (2n+1) leaves room for other BLAS summation orders, and is far
    below what a fault moves: without the q scaling U[0, 0] doubles, and q_norms off by 1e-10
    move it by 1e-10 |j_0(t)| >= 4.7e-12."""
    spherical_jn = pytest.importorskip("scipy.special").spherical_jn
    n = np.arange(min(N, int(2 * t + 40)))
    row = propagator(build_hamiltonian(N), t)[0, : len(n)]
    expected = (2 * n + 1) * (-1j) ** n * spherical_jn(n, t)
    assert np.all(np.abs(row - expected) <= 16 * np.finfo(float).eps * (2 * n + 1))


def test_propagator_forms_no_inverse_matrix(monkeypatch):
    """At N = 1024 (scipy's roots, as cold roots_P takes seconds) the propagator peaks at U,
    2 arrays of 8 N^2 bytes, plus one real temporary: S diag(f/n) S^T Q is one product per
    part, with no S^{-1} (5.0 while it formed one).  U maps each ket to its phase-twisted self."""
    roots_legendre = pytest.importorskip("scipy.special").roots_legendre
    monkeypatch.setattr(lattice, "roots_P", lambda N: RootSet(roots_legendre(N)[0]))
    N, t = 1024, 0.3
    system = biorthogonal_system(N)
    tracemalloc.start()
    try:
        U = propagator(build_hamiltonian(N), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * 8 * N**2
    kets = system.kets[:, ::97]
    phases = np.exp(-1j * system.eigenvalues.roots[::97] * t)
    np.testing.assert_allclose(U @ kets, kets * phases, rtol=0, atol=1e-11 * np.abs(kets).max())


@pytest.mark.parametrize("N", [3, 64])
def test_propagator_matches_expm(N):
    expm = pytest.importorskip("scipy.linalg").expm
    for t in (0.3, 2.7):
        U = propagator(build_hamiltonian(N), t)
        np.testing.assert_allclose(U, expm(-1j * t * dense_hamiltonian(N)), rtol=0, atol=1e-12)


def test_time_reversal_conjugation():
    H = build_hamiltonian(4)
    np.testing.assert_allclose(propagator(H, 1.3), propagator(H, -1.3).conj(), atol=1e-13)


def test_theta_norm_values():
    Q = Q_metric(2)
    assert theta_norm(Q, EvolutionState(2, np.array([1.0, 0.0]))) == 0.5
    assert theta_norm(Q, EvolutionState(2, np.array([0.0, 1.0]))) == 1.5
    identity = MetricOperator(np.eye(2))
    assert theta_norm(identity, EvolutionState(2, np.array([0.6, 0.8]))) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "amplitudes, expected",
    [([2**32, 0], 2.0**63), (np.array([16, 0], dtype=np.uint8), 128.0)],
    ids=["int64", "uint8"],
)
def test_norms_of_an_integer_state_do_not_wrap(amplitudes, expected):
    """The Dirac norm 2^64 of int64 [2^32, 0], and 256 of uint8 [16, 0], is formed in floats."""
    state = EvolutionState(2, np.array(amplitudes))
    assert theta_norm(tridiagonal_metric(2, 0.1), state) == expected


def test_theta_norm_rejects_indefinite():
    indefinite = MetricOperator(np.diag([1.0, -1.0]), "x")
    with pytest.raises(ValueError, match="positive-definite"):
        theta_norm(indefinite, EvolutionState(2, np.array([1.0, 0.0])))


def test_zero_state_rejected():
    with pytest.raises(ValueError):
        EvolutionState(2, np.zeros(2))


def test_eigenstate_only_acquires_phase(system_cache):
    system = system_cache(2)
    psi0 = EvolutionState(2, system.kets[:, 0].astype(complex))
    drift, _ = norm_drift(
        build_hamiltonian(2), Q_metric(2), psi0, np.linspace(0, 10, 21)
    )
    assert drift <= 1e-12


def test_standard_demo_drifts():
    drift_theta, drift_dirac = norm_drift(
        build_hamiltonian(4),
        Q_metric(4),
        EvolutionState(4, np.ones(4) / 2.0),
        np.linspace(0, 10, 101),
    )
    assert drift_theta <= 1e-10
    assert drift_dirac > 1e-3


def test_incompatible_metric_rejected():
    theta = MetricOperator(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        norm_drift(
            build_hamiltonian(2), theta, EvolutionState(2, np.array([1.0, 1.0])),
            np.linspace(0, 1, 3),
        )


@pytest.mark.parametrize("N", [2, 4, 8, 16, 32])
def test_theta_norm_conserved_for_family_metrics(N, system_cache, rng):
    system = system_cache(N)
    kappa = KappaVector(N, rng.uniform(0.3, 3.0, N))
    theta = metric_from_kappa(system, kappa)
    psi0 = EvolutionState(N, rng.normal(size=N) + 1j * rng.normal(size=N))
    drift_theta, _ = norm_drift(
        build_hamiltonian(N), theta, psi0, np.linspace(0, 10, 31)
    )
    assert drift_theta <= 1e-10


def test_norm_trajectory_starts_at_the_state_norms():
    theta = Q_metric(3)
    psi0 = EvolutionState(3, np.array([1.0, -2.0, 0.5]))
    theta_norms, dirac_norms = norm_trajectory(
        biorthogonal_system(3), theta, psi0, np.linspace(0, 5, 6)
    )
    assert theta_norms.shape == dirac_norms.shape == (6,)
    assert theta_norms[0] == pytest.approx(theta_norm(theta, psi0), rel=1e-13)
    assert dirac_norms[0] == pytest.approx(5.25, rel=1e-13)
    np.testing.assert_allclose(theta_norms, theta_norms[0], rtol=1e-12)


def test_norm_trajectory_holds_vectors_only(system_cache, rng):
    """At N = 256 the trajectory peaks below half an array of 8 N^2 bytes: it casts no real
    N x N array to complex and forms no Q kets (3.0 arrays while it did).  Its norms equal
    those of the propagated state, v^H Theta v and v^H v in complex arithmetic."""
    N = 256
    system, theta = system_cache(N), Q_metric(N)
    psi0 = EvolutionState(N, rng.normal(size=N) + 1j * rng.normal(size=N))
    t_grid = np.linspace(0.0, 2.0, 5)
    tracemalloc.start()
    try:
        theta_norms, dirac_norms = norm_trajectory(system, theta, psi0, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * N**2
    H = build_hamiltonian(N)
    for i, t in enumerate(t_grid):
        v = propagator(H, t) @ psi0.amplitudes
        assert theta_norms[i] == pytest.approx(np.real(v.conj() @ theta.matrix @ v), rel=1e-10)
        assert dirac_norms[i] == pytest.approx(np.real(v.conj() @ v), rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_time_grid_rejected(bad):
    psi0 = EvolutionState(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        norm_drift(build_hamiltonian(2), Q_metric(2), psi0, np.array([0.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagator_rejects_non_finite_time(bad):
    with pytest.raises(ValueError, match="t is not finite"):
        propagator(build_hamiltonian(3), bad)


@pytest.mark.parametrize("t", [[0.1, 0.2], [0.1]])
def test_propagator_takes_one_time(t):
    # one exp(-iHt) per call: an array of times is a ValueError naming t, with one entry too
    with pytest.raises(ValueError, match=r"^t must be one number, not an array of shape"):
        propagator(build_hamiltonian(3), t)


def test_norm_trajectory_takes_a_one_dimensional_grid():
    # one norm pair per time: a 2-D grid is not read row by row
    with pytest.raises(ValueError, match="^the time grid must be one-dimensional"):
        norm_trajectory(
            biorthogonal_system(2),
            tridiagonal_metric(2, 0.1),
            EvolutionState(2, [1.0, 0.0]),
            [[0.0, 1.0]],
        )


@pytest.mark.parametrize(
    "dimension, amplitudes",
    [
        (2, [1.0, np.nan]),
        (2, [np.inf, 0.0]),
        (2, [1.0, complex(0.0, np.nan)]),
        (2, [1.0, 1.0, 1.0]),
        (3, [1.0, 1.0]),
        (2, [[1.0, 1.0]]),
    ],
    ids=["nan", "inf", "complex-nan", "too-long", "too-short", "matrix"],
)
def test_invalid_state_rejected(dimension, amplitudes):
    with pytest.raises(ValueError):
        EvolutionState(dimension, np.array(amplitudes))


def test_theta_norm_of_a_state_built_from_a_list():
    state = EvolutionState(2, [1.0, 0.0])
    assert isinstance(state.amplitudes, np.ndarray)
    assert theta_norm(Q_metric(2), state) == 0.5


def test_norm_drift_rejects_nan_metric():
    """A NaN Theta never reaches norm_drift: it is rejected when it is built."""
    matrix = np.diag(build_metric_Q(3))
    matrix[0, 0] = np.nan
    with pytest.raises(ValueError, match="theta is not finite"):
        MetricOperator(matrix)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: theta_norm(tridiagonal_metric(4, 0.1), EvolutionState(3, np.ones(3))),
            "theta and the state",
        ),
        (
            lambda: norm_trajectory(
                biorthogonal_system(3), tridiagonal_metric(3, 0.1), EvolutionState(4, np.ones(4)),
                [0.0, 1.0],
            ),
            "the system, theta and the state",
        ),
        (
            lambda: norm_trajectory(
                biorthogonal_system(3), tridiagonal_metric(4, 0.1), EvolutionState(3, np.ones(3)),
                [0.0, 1.0],
            ),
            "the system, theta and the state",
        ),
        (
            lambda: norm_drift(
                build_hamiltonian(3), tridiagonal_metric(3, 0.1), EvolutionState(4, np.ones(4)),
                [0.0, 1.0],
            ),
            "theta and the state",
        ),
    ],
    ids=["theta_norm", "norm_trajectory state", "norm_trajectory theta", "norm_drift state"],
)
def test_norm_paths_name_a_size_mismatch(call, message):
    with pytest.raises(ValueError, match=f"dimension mismatch between {message}$"):
        call()


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-11])
def test_norm_drift_gate_is_relative_to_theta(scale):
    """Theta = c I does not intertwine with H at any scale c: residual max|H^T - H| / max|H|."""
    theta = MetricOperator(scale * np.eye(4), "x")
    with pytest.raises(ValueError, match="intertwine"):
        norm_drift(build_hamiltonian(4), theta, EvolutionState(4, np.ones(4)), np.linspace(0, 5, 11))


def test_norm_drift_requires_positive_definite_metric():
    theta = tridiagonal_metric(3, 5.0)  # a family member beyond the horizon
    assert theta.definiteness == "indefinite"
    with pytest.raises(ValueError, match="positive-definite"):
        norm_drift(build_hamiltonian(3), theta, EvolutionState(3, np.ones(3)), np.linspace(0, 1, 5))


@pytest.mark.parametrize("dimension", [True, 1.0, "1"])
def test_state_dimension_must_be_an_integer(dimension):
    with pytest.raises(ValueError, match="integer"):
        EvolutionState(dimension, np.array([1.0]))


def test_norm_trajectory_rejects_an_indefinite_metric():
    theta = tridiagonal_metric(2, 2.0)  # beyond gamma(2) = sqrt(3)/2
    assert theta.definiteness == "indefinite"
    with pytest.raises(ValueError, match="positive-definite"):
        norm_trajectory(biorthogonal_system(2), theta, EvolutionState(2, [1.0, -1.0]), [0.0, 1.0])


def test_norm_trajectory_gates_an_empty_grid():
    theta = tridiagonal_metric(2, 2.0)
    psi0 = EvolutionState(2, [1.0, -1.0])
    with pytest.raises(ValueError, match="positive-definite"):
        norm_trajectory(biorthogonal_system(2), theta, psi0, [])
    theta_norms, dirac_norms = norm_trajectory(biorthogonal_system(2), Q_metric(2), psi0, [])
    assert theta_norms.shape == dirac_norms.shape == (0,)


def test_a_zero_metric_reads_singular_and_every_norm_path_rejects_it():
    zero, psi = MetricOperator(np.zeros((2, 2))), EvolutionState(2, [1.0, 0.0])
    assert zero.definiteness == "singular"
    for call in (
        lambda: theta_norm(zero, psi),
        lambda: norm_trajectory(biorthogonal_system(2), zero, psi, [0.0, 1.0]),
        lambda: norm_drift(build_hamiltonian(2), zero, psi, [0.0, 1.0]),
    ):
        with pytest.raises(ValueError, match="positive-definite"):
            call()
