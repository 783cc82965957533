import numpy as np
import pytest

from qtlattice import (
    EvolutionState,
    KappaVector,
    MetricOperator,
    build_hamiltonian,
    build_metric_Q,
    metric_from_kappa,
    biorthogonal_system,
    norm_drift,
    norm_trajectory,
    propagator,
    theta_norm,
)


def Q_metric(N):
    return MetricOperator.from_matrix(build_metric_Q(N).to_dense(), "diagonal-Q")


def test_propagator_at_zero_is_identity():
    np.testing.assert_array_equal(propagator(build_hamiltonian(3), 0.0), np.eye(3))


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


def test_time_reversal_conjugation():
    H = build_hamiltonian(4)
    np.testing.assert_allclose(propagator(H, 1.3), propagator(H, -1.3).conj(), atol=1e-13)


def test_theta_norm_values():
    Q = Q_metric(2)
    assert theta_norm(Q, EvolutionState(2, np.array([1.0, 0.0]))) == 0.5
    assert theta_norm(Q, EvolutionState(2, np.array([0.0, 1.0]))) == 1.5
    identity = MetricOperator.from_matrix(np.eye(2), "external")
    assert theta_norm(identity, EvolutionState(2, np.array([0.6, 0.8]))) == pytest.approx(1.0)


def test_theta_norm_rejects_indefinite():
    indefinite = MetricOperator.from_matrix(np.diag([1.0, -1.0]), "external")
    with pytest.raises(ValueError):
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
    theta = MetricOperator.from_matrix(np.diag([1.0, 2.0]), "external")
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_time_grid_rejected(bad):
    psi0 = EvolutionState(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        norm_drift(build_hamiltonian(2), Q_metric(2), psi0, np.array([0.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagator_rejects_non_finite_time(bad):
    with pytest.raises(ValueError, match="t must be finite"):
        propagator(build_hamiltonian(3), bad)


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
