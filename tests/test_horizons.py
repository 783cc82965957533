import numpy as np
import pytest

from qtlattice import (
    build_hamiltonian,
    hidden_horizon_scan,
    horizon_convergence_scan,
    horizon_gamma,
    spectrum,
    tridiagonal_metric,
)


def test_gamma_closed_forms():
    assert horizon_gamma(2).gamma == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert horizon_gamma(3).gamma == pytest.approx(np.sqrt(5 / 12), abs=1e-12)


def test_gamma_report_fields():
    report = horizon_gamma(2)
    assert report.method_primary == "generalized-eigenvalue"
    assert report.method_check == "bisection"
    assert report.cross_check_residual <= 1e-10
    assert report.bisection_iterations > 0


def test_gamma_requires_N_at_least_2():
    with pytest.raises(ValueError):
        horizon_gamma(1)


@pytest.mark.parametrize("N", list(range(2, 17)) + [32, 48, 64])
def test_gamma_methods_agree_and_straddle(N):
    report = horizon_gamma(N)
    assert report.cross_check_residual <= 1e-10
    assert tridiagonal_metric(N, report.gamma - 1e-8).definiteness == "positive-definite"
    assert tridiagonal_metric(N, report.gamma + 1e-8).definiteness != "positive-definite"


def test_gamma_decreasing_in_N():
    gammas = [horizon_gamma(N).gamma for N in range(2, 65)]
    decreasing = all(a > b for a, b in zip(gammas, gammas[1:]))
    # empirical monotonicity; report rather than hard-fail if it ever breaks
    if not decreasing:
        pytest.fail("gamma(N) monotonicity broke; investigate before relying on it")


def test_convergence_scan():
    rows = horizon_convergence_scan([2, 3])
    assert rows[0][0] == 2 and rows[0][1] == pytest.approx(np.sqrt(3) / 2, abs=1e-10)
    assert rows[1][1] == pytest.approx(np.sqrt(5 / 12), abs=1e-10)
    assert rows[0][2] is None
    assert rows[1][2] == pytest.approx(abs(rows[1][1] - rows[0][1]))


def test_convergence_scan_differences_decrease():
    rows = horizon_convergence_scan([2, 4, 8, 16, 32, 64])
    assert all(gamma > 0 for _, gamma, _ in rows)
    diffs = [d for _, _, d in rows[1:]]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_identity_observable_never_crosses():
    gamma = horizon_gamma(2).gamma
    grid = np.linspace(-gamma + 1e-3, gamma - 1e-3, 41)
    scan = hidden_horizon_scan(2, np.eye(2), grid)
    assert scan.first_crossing is None
    assert np.nanmax(scan.max_imag) == 0.0


def test_hidden_horizon_crossing_at_one():
    grid = np.arange(0.0, 1.2, 1e-3)
    scan = hidden_horizon_scan(2, np.diag([1.0, -1.0]), grid)
    assert scan.first_crossing == pytest.approx(1.0, abs=2e-3)
    assert scan.first_crossing >= horizon_gamma(2).gamma - 1e-8


def test_reality_survives_indefinite_metric():
    # at alpha = 0.9 the metric is already indefinite but the observable
    # spectrum is still real: the hidden horizon is observable-dependent
    scan = hidden_horizon_scan(2, np.diag([1.0, -1.0]), np.array([0.9]))
    assert scan.max_imag[0] <= 1e-10
    assert tridiagonal_metric(2, 0.9).definiteness == "indefinite"


def test_scan_rejects_asymmetric_K():
    with pytest.raises(ValueError):
        hidden_horizon_scan(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.1]))


def test_scan_skips_singular_points():
    gamma = horizon_gamma(2).gamma
    scan = hidden_horizon_scan(2, np.eye(2), np.array([gamma]))
    assert scan.skipped_singular == [gamma]
    assert np.isnan(scan.max_imag[0])


@pytest.mark.parametrize("N", [2, 3, 4, 8, 16])
def test_no_complex_eigenvalues_inside_horizon(N, rng):
    gamma = horizon_gamma(N).gamma
    alphas = np.linspace(-gamma + 1e-6, gamma - 1e-6, 7)
    for _ in range(20):
        K = rng.normal(size=(N, N))
        K = 0.5 * (K + K.T)
        scan = hidden_horizon_scan(N, K, alphas)
        assert scan.first_crossing is None
        assert np.nanmax(scan.max_imag) <= 1e-9 * max(1.0, np.max(np.abs(K)))


def test_hamiltonian_spectrum_is_alpha_independent():
    H = build_hamiltonian(5)
    reference = spectrum(H).roots
    for _ in range(3):
        np.testing.assert_array_equal(spectrum(H).roots, reference)


def test_gamma_1024_matches_dense_eigvalsh():
    N = 1024
    q = np.arange(N) + 0.5
    couplings = np.arange(1, N) / np.sqrt(q[:-1] * q[1:])
    S = np.diag(couplings, 1) + np.diag(couplings, -1)
    gamma = 1.0 / np.linalg.eigvalsh(S)[-1]
    assert abs(horizon_gamma(N).gamma - gamma) <= 64 * N * np.finfo(float).eps


def test_gamma_4096_cross_check():
    report = horizon_gamma(4096)
    assert report.cross_check_residual <= 1e-10
    assert 0.5 < report.gamma < horizon_gamma(1024).gamma


@pytest.mark.parametrize("N", [2, 64])
def test_label_at_gamma_is_singular(N):
    # the dense elimination said positive-definite here; the scan skips it either way
    gamma = horizon_gamma(N).gamma
    assert tridiagonal_metric(N, gamma).definiteness == "singular"
    scan = hidden_horizon_scan(N, np.eye(N), np.array([gamma]))
    assert scan.definiteness == ["singular"]
    assert scan.skipped_singular == [gamma]


def _point_loop_scan(N, K, grid):
    """One point at a time: dense Theta(alpha), rcond skip, solve, eigvals."""
    q = np.arange(N) + 0.5
    T = np.diag(np.arange(1.0, N), 1) + np.diag(np.arange(1.0, N), -1)
    max_imag = np.full(len(grid), np.nan)
    skipped = []
    for i, alpha in enumerate(grid):
        theta = np.diag(q) + alpha * T
        if 1.0 / np.linalg.cond(theta) < 1e-12:
            skipped.append(float(alpha))
            continue
        max_imag[i] = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(theta, K)).imag))
    return max_imag, skipped


@pytest.mark.parametrize("N", [2, 8])
def test_batched_scan_matches_point_loop(N, rng, monkeypatch):
    import qtlattice.horizons as horizons

    # stacks of three matrices, so the grid spans several stacks
    monkeypatch.setattr(horizons, "_SCAN_CHUNK_BYTES", 3 * 8 * N * N)
    gamma = horizon_gamma(N).gamma
    grid = np.sort(np.r_[np.linspace(-0.5, 1.2, 35), gamma, 1.0, -gamma])
    K = np.diag([1.0, -1.0]) if N == 2 else rng.normal(size=(N, N))
    K = 0.5 * (K + K.T)
    scan = hidden_horizon_scan(N, K, grid)
    max_imag, skipped = _point_loop_scan(N, K, grid)
    np.testing.assert_array_equal(scan.max_imag, max_imag)
    assert scan.skipped_singular == skipped == [-gamma, gamma]
    threshold = 1e-8 * max(1.0, np.max(np.abs(K)))
    crossings = grid[max_imag > threshold]
    assert scan.first_crossing == (float(crossings[0]) if len(crossings) else None)
    if N == 2:
        assert scan.first_crossing > 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scan_rejects_non_finite_input(bad):
    with pytest.raises(ValueError):
        hidden_horizon_scan(2, np.eye(2), np.array([0.1, bad]))
    with pytest.raises(ValueError):
        hidden_horizon_scan(2, np.array([[1.0, 0.0], [0.0, bad]]), np.array([0.1]))
