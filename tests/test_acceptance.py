"""Acceptance gates for the whole artifact.

Each test covers one numbered criterion at its stated tolerance and prints
a single pass line (visible with pytest -s or in captured output); a
failing assert marks the criterion red.
"""

from fractions import Fraction

import numpy as np
from conftest import dense_hamiltonian

import qtlattice as qt
from qtlattice.exact import exact_intertwining_check_factorial


def _report(number, text):
    print(f"criterion {number:2d} PASS: {text}")


def test_criterion_01_hamiltonian_entries():
    H = dense_hamiltonian(5)
    expected = np.array(
        [
            [0, 1, 0, 0, 0],
            [Fraction(1, 3), 0, Fraction(2, 3), 0, 0],
            [0, Fraction(2, 5), 0, Fraction(3, 5), 0],
            [0, 0, Fraction(3, 7), 0, Fraction(4, 7)],
            [0, 0, 0, Fraction(4, 9), 0],
        ],
        dtype=float,
    )
    assert np.array_equal(H, expected)
    _report(1, "build_hamiltonian(5) reproduces every published entry exactly")


def test_criterion_02_intertwining():
    for N in range(1, 9):
        ok, witness = qt.exact_intertwining_check(N)
        assert ok and witness == 0
    for N in range(1, 65):
        H = dense_hamiltonian(N)
        Q = np.diag(qt.build_metric_Q(N))
        residual = np.max(np.abs(H.T @ Q - Q @ H))
        scale = max(1.0, np.max(np.abs(Q @ H)))
        assert residual <= 1e-15 * scale
    _report(2, "exact intertwining holds for N<=8; float residual <=1e-15 for N<=64")


def test_criterion_03_spectrum():
    for N in range(1, 65):
        newton = qt.roots_P(N).roots
        jacobi = qt.spectrum(qt.build_hamiltonian(N)).roots
        assert np.max(np.abs(newton - jacobi)) <= 1e-12
        assert np.all(np.abs(jacobi) < 1.0)
        np.testing.assert_allclose(jacobi, -jacobi[::-1], atol=1e-14)
        if N > 1:
            assert np.min(np.diff(jacobi)) > 0
    np.testing.assert_allclose(
        qt.spectrum(qt.build_hamiltonian(2)).roots,
        [-np.sqrt(1 / 3), np.sqrt(1 / 3)],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        qt.spectrum(qt.build_hamiltonian(3)).roots,
        [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)],
        atol=1e-14,
    )
    _report(3, "both spectrum methods agree to 1e-12 for N<=64; closed forms match")


def test_criterion_04_exceptional_identity(system_cache):
    for N in (2, 3, 4, 8, 16, 32):
        system = system_cache(N)
        theta = qt.metric_from_kappa(system, qt.exceptional_kappa(system))
        assert np.max(np.abs(theta.matrix - np.diag(qt.build_metric_Q(N)))) <= 1e-12
        C = qt.charge_operator(qt.build_metric_Q(N), theta)
        assert np.max(np.abs(C.matrix - np.eye(N))) <= 1e-11
    _report(4, "exceptional kappa collapses the metric onto Q and the charge onto I")


def test_criterion_05_kappa_family(system_cache):
    rng = np.random.default_rng(5)
    for N in range(2, 17):
        system = system_cache(N)
        H = dense_hamiltonian(N)
        for _ in range(50):
            kappa = qt.KappaVector(N, rng.uniform(0.1, 5.0, N))
            theta = qt.metric_from_kappa(system, kappa)
            residual = np.max(np.abs(H.T @ theta.matrix - theta.matrix @ H))
            assert residual <= 1e-11 * np.max(np.abs(theta.matrix))
            assert theta.definiteness == "positive-definite"
            recovered = qt.kappa_from_metric(system, theta)
            assert np.max(np.abs(recovered.values - kappa.values) / kappa.values) <= 1e-10
    _report(5, "random-kappa metrics intertwine, are positive, and round-trip")


def test_criterion_06_horizon():
    assert abs(qt.horizon_gamma(2).gamma - np.sqrt(3) / 2) <= 1e-10
    assert abs(qt.horizon_gamma(3).gamma - np.sqrt(5 / 12)) <= 1e-10
    for N in range(2, 65):
        report = qt.horizon_gamma(N)
        assert report.cross_check_residual <= 1e-10
        assert report.gamma > 0
    gammas = [qt.horizon_gamma(N).gamma for N in (2, 4, 8, 16, 32, 64)]
    diffs = [abs(b - a) for a, b in zip(gammas, gammas[1:])]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    _report(6, "gamma closed forms, method agreement N<=64, decreasing differences")


def test_criterion_07_hidden_horizon():
    grid = np.arange(0.0, 1.2, 1e-3)
    scan = qt.hidden_horizon_scan(2, np.diag([1.0, -1.0]), grid)
    assert abs(scan.first_crossing - 1.0) <= 2e-3
    assert scan.first_crossing > qt.horizon_gamma(2).gamma
    rng = np.random.default_rng(7)
    for N in (2, 3, 4, 8, 16):
        gamma = qt.horizon_gamma(N).gamma
        alphas = np.linspace(-(gamma - 1e-6), gamma - 1e-6, 5)
        for _ in range(20):
            K = rng.normal(size=(N, N))
            K = 0.5 * (K + K.T)
            inner = qt.hidden_horizon_scan(N, K, alphas)
            assert inner.first_crossing is None
    _report(7, "reality lost at alpha=1.000 above gamma(2); never inside the horizon")


def test_criterion_08_observability_criterion(system_cache):
    rng = np.random.default_rng(8)
    positives = negatives = 0
    for N in (2, 3, 5, 8):
        system = system_cache(N)
        for _ in range(5):
            kappa = qt.KappaVector(N, rng.uniform(0.2, 3.0, N))
            theta = qt.metric_from_kappa(system, kappa)
            K = rng.normal(size=(N, N))
            K = 0.5 * (K + K.T)
            Lam = qt.observable_from_hermitian(K, theta)
            assert qt.dieudonne_residual(Lam, theta) <= 1e-10
            pair = qt.overlap_matrices(system, kappa, qt.spectral_data(Lam))
            assert qt.criterion_product_hermitian(pair)
            positives += 1

            bad = rng.normal(size=(N, N))
            assert qt.dieudonne_residual(bad, theta) > 1e-10
            pair = qt.overlap_matrices(system, kappa, qt.spectral_data(bad))
            assert not qt.criterion_product_hermitian(pair)
            negatives += 1
    assert positives == negatives == 20
    _report(8, "overlap-product Hermiticity agrees with the residual test, 40 cases")


def test_criterion_09_unitarity():
    theta = qt.MetricOperator(np.diag(qt.build_metric_Q(4)), "diagonal-Q")
    drift_theta, drift_dirac = qt.norm_drift(
        qt.build_hamiltonian(4),
        theta,
        qt.EvolutionState(4, np.ones(4) / 2.0),
        np.linspace(0.0, 10.0, 101),
    )
    assert drift_theta <= 1e-10
    assert drift_dirac >= 1e-3
    _report(9, "metric norm conserved to 1e-10 while the Dirac norm drifts")


def test_criterion_10_documented_discrepancy():
    ok2, witness2 = exact_intertwining_check_factorial(2)
    assert ok2 and witness2 == 0  # published values are right up to N = 2
    ok3, witness3 = exact_intertwining_check_factorial(3)
    assert not ok3
    assert witness3 > 0
    _report(10, "published factorial diagonal fails exact intertwining at N=3")
