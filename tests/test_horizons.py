import numpy as np
import pytest
from scipy.special import jn_zeros, roots_legendre

from qtlattice import (
    build_hamiltonian,
    hidden_horizon_scan,
    horizon_gamma,
    spectrum,
    tridiagonal_metric,
)
from qtlattice import horizons, legendre, metrics, tridiagonal
from qtlattice.legendre import _largest_root
from qtlattice.metrics import _slice, tridiagonal_definiteness
from qtlattice.tridiagonal import sturm_count


def test_gamma_closed_forms():
    assert horizon_gamma(2).gamma == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert horizon_gamma(3).gamma == pytest.approx(np.sqrt(5 / 12), abs=1e-12)


def test_gamma_report_fields():
    report = horizon_gamma(2)
    # the fields are the keys of `qtlattice horizon`'s JSON
    assert list(vars(report)) == ["dimension", "gamma", "cross_check_residual", "bisection_iterations"]
    # the certificate's bound 0.5 delta/(x (x - delta)), x = 1/sqrt(3), is 1.5e-12 (1 + 1.7e-12)
    assert report.cross_check_residual == pytest.approx(1.5e-12, rel=1e-11, abs=0)
    assert report.bisection_iterations == 0


@pytest.mark.parametrize("moved", [-2e-12, 2e-12])
@pytest.mark.parametrize("N", [2, 64, 1024, 4096])
def test_certificate_rejects_a_largest_root_moved_by_2e_12(N, moved, monkeypatch):
    """Two Sturm counts on J at x -+ 1e-12 reject a root 2e-12 off; a gate of 1e-10 on gamma
    would not."""
    x = _largest_root(N) + moved
    monkeypatch.setattr(horizons, "_largest_root", lambda n: x)
    with pytest.raises(RuntimeError, match=f"the roots of P_{N} failed at root {N - 1}: "):
        horizon_gamma(N)


@pytest.mark.parametrize("moved", [-5e-13, 5e-13])
@pytest.mark.parametrize("N", [2, 64, 1024, 4096])
def test_certificate_passes_a_largest_root_moved_by_5e_13(N, moved, monkeypatch):
    x = _largest_root(N) + moved
    monkeypatch.setattr(horizons, "_largest_root", lambda n: x)
    assert horizon_gamma(N).gamma == 0.5 / x


def test_certificate_rejects_gamma_of_one_half(monkeypatch):
    """At N = 2e5, gamma - 1/2 is about j_{0,1}^2 / (4 N^2) = 3.6e-11, inside a gate of 1e-10 on
    gamma; x = 1 - 1e-16 (gamma = 1/2 to rounding) lies 7e-11 above the largest eigenvalue of J."""
    monkeypatch.setattr(horizons, "_largest_root", lambda n: 1.0 - 1e-16)
    with pytest.raises(RuntimeError, match="the roots of P_200000 failed at root 199999: "):
        horizon_gamma(200_000)


def test_horizon_is_two_scalar_sturm_counts(monkeypatch):
    """The one-root certificate is one `sturm_count` call at two shifts, which runs the
    Python-float loop twice, not the batched loop (0.31 ms against 5.4 ms for both counts at
    N = 1024), and nothing else counts."""
    calls, passes = [], []
    float_count = tridiagonal._float_count

    def counting(diagonal, offdiagonal, shift):
        calls.append((np.ndim(offdiagonal), np.shape(shift)))
        return sturm_count(diagonal, offdiagonal, shift)

    def counting_passes(shifted, squared, zero_pivot):
        passes.append(len(shifted))
        return float_count(shifted, squared, zero_pivot)

    for module in (horizons, legendre, metrics):
        monkeypatch.setattr(module, "sturm_count", counting)
    monkeypatch.setattr(tridiagonal, "_float_count", counting_passes)
    horizon_gamma(64)
    assert calls == [(1, (2,))]
    assert passes == [64, 64]


def test_gamma_requires_N_at_least_2():
    with pytest.raises(ValueError):
        horizon_gamma(1)


@pytest.mark.parametrize("N", list(range(2, 17)) + [32, 48, 64, 256, 1024, 4096])
def test_gamma_methods_agree_and_straddle(N):
    """Theta(gamma - 1e-10) is positive-definite and Theta(gamma + 1e-10) is not, by the O(N)
    labels of the slice (no dense Theta): the physics of the certificate, checked on Theta."""
    report = horizon_gamma(N)
    assert report.cross_check_residual <= 1e-10
    inside, outside = (tridiagonal_definiteness(*_slice(N, report.gamma + shift))
                       for shift in (-1e-10, 1e-10))
    assert inside == "positive-definite" and outside != "positive-definite"


def test_gamma_decreasing_in_N():
    gammas = [horizon_gamma(N).gamma for N in range(2, 65)]
    decreasing = all(a > b for a, b in zip(gammas, gammas[1:]))
    # empirical monotonicity; report rather than hard-fail if it ever breaks
    if not decreasing:
        pytest.fail("gamma(N) monotonicity broke; investigate before relying on it")


def _convergence_rows(N_values):
    """(N, gamma, |gamma - previous gamma|) per N; the first difference is None."""
    gammas = [horizon_gamma(N).gamma for N in N_values]
    diffs = [None] + [abs(b - a) for a, b in zip(gammas, gammas[1:])]
    return list(zip(N_values, gammas, diffs))


def test_convergence_scan():
    rows = _convergence_rows([2, 3])
    assert rows[0][0] == 2 and rows[0][1] == pytest.approx(np.sqrt(3) / 2, abs=1e-10)
    assert rows[1][1] == pytest.approx(np.sqrt(5 / 12), abs=1e-10)
    assert rows[0][2] is None
    assert rows[1][2] == pytest.approx(abs(rows[1][1] - rows[0][1]))


def test_convergence_scan_differences_decrease():
    rows = _convergence_rows([2, 4, 8, 16, 32, 64])
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


def test_exact_exceptional_point_reads_real():
    # at alpha = 1 the eigenvalues of diag(1, -1) collide exactly: a solve
    # that rounds there reads about 1e-7, above the reality threshold, and
    # moves the first crossing onto the exceptional point itself
    grid = np.linspace(0.0, 1.2, 1201)
    scan = hidden_horizon_scan(2, np.diag([1.0, -1.0]), grid)
    assert grid[1000] == 1.0
    assert scan.max_imag[1000] == 0.0
    assert scan.first_crossing == grid[1001]


def test_scan_crossing_is_scale_invariant():
    """Theta(alpha)^{-1} c K = c Lambda(alpha): the threshold 1e-8 max|K| scales with it."""
    a = np.random.default_rng(0).normal(size=(8, 8))
    K = 0.5 * (a + a.T)
    grid = np.linspace(0.0, 3.0 * horizon_gamma(8).gamma, 301)
    reference = hidden_horizon_scan(8, K, grid)
    assert reference.first_crossing is not None
    for scale in (1.0, 1e-6, 1e-12):
        scan = hidden_horizon_scan(8, scale * K, grid)
        assert scan.first_crossing == reference.first_crossing
        np.testing.assert_allclose(scan.max_imag, scale * reference.max_imag, rtol=1e-9, atol=0)


def test_zero_K_scans_real():
    grid = np.linspace(-3.0, 3.0, 61)
    scan = hidden_horizon_scan(4, np.zeros((4, 4)), grid)
    assert scan.first_crossing is None
    assert np.nanmax(scan.max_imag) == 0.0


@pytest.mark.parametrize("N", [2, 3, 5, 8, 16])
def test_complex_pairs_at_most_the_negative_index(N, rng):
    """Pontryagin: Lambda = Theta(alpha)^{-1} K is Theta-self-adjoint, so it has
    at most nu(alpha) complex pairs, nu the number of negative eigenvalues of
    Theta(alpha).  The points the scan skips as singular (alpha = -gamma) are
    left out."""
    gamma = horizon_gamma(N).gamma
    grid = np.linspace(-3.0 * gamma, 3.0 * gamma, 121)
    thetas = np.array([tridiagonal_metric(N, alpha).matrix for alpha in grid])
    negative = np.sum(np.linalg.eigvalsh(thetas) < 0, axis=1)
    most = 0
    for _ in range(20):
        K = rng.normal(size=(N, N))
        K = K + K.T
        kept = ~np.isin(grid, hidden_horizon_scan(N, K, grid).skipped_singular)
        eigenvalues = np.linalg.eigvals(np.linalg.solve(thetas[kept], K))
        complex_ = np.abs(eigenvalues.imag) > 1e-8 * np.max(np.abs(K))
        pairs = np.sum(complex_, axis=1) // 2
        assert np.all(pairs <= negative[kept])
        most = max(most, pairs.max())
    assert most >= 1  # the bound is exercised, not met by real spectra alone


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
        assert np.nanmax(scan.max_imag) <= 1e-9 * np.max(np.abs(K))


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
    threshold = 1e-8 * np.max(np.abs(K))
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


def test_scan_diagonalizes_only_indefinite_points(rng, monkeypatch):
    import qtlattice.horizons as horizons

    solved, eigensolved = [], []
    solve, eigvals = np.linalg.solve, np.linalg.eigvals

    def counting_solve(thetas, K):
        solved.extend(np.atleast_3d(thetas)[:, 0, 1])  # Theta(alpha)_{01} = alpha t_0 = alpha
        return solve(thetas, K)

    def counting_eigvals(matrices):
        eigensolved.append(len(matrices))
        return eigvals(matrices)

    N = 8
    gamma = horizon_gamma(N).gamma
    grid = np.linspace(-2.0 * gamma, 2.0 * gamma, 201)
    monkeypatch.setattr(horizons.np.linalg, "solve", counting_solve)
    monkeypatch.setattr(horizons.np.linalg, "eigvals", counting_eigvals)
    K = rng.normal(size=(N, N))
    scan = hidden_horizon_scan(N, K + K.T, grid)
    labels = np.array(scan.definiteness)
    skipped = np.isin(grid, scan.skipped_singular)
    indefinite = (labels == "indefinite") & ~skipped
    assert 0 < indefinite.sum() < len(grid) and (labels == "positive-definite").sum() > 0
    np.testing.assert_array_equal(solved, grid[indefinite])
    assert sum(eigensolved) == indefinite.sum()
    positive = scan.max_imag[labels == "positive-definite"]
    assert np.all(positive == 0.0) and not np.any(np.signbit(positive))


@pytest.mark.parametrize("N", [2, 64])
def test_positive_definite_point_near_singular_is_skipped(N):
    # an alpha just below gamma with lambda_min(Theta) in (thr, tau]: labelled
    # positive-definite, yet skipped as numerically singular
    q, t = np.arange(N) + 0.5, np.arange(1.0, N)

    def thr_and_tau(alpha):
        thr = 1e-12 * max(q.max(), alpha * t.max())
        return thr, 1e-12 * (q.max() + alpha * np.max(np.r_[t, 0.0] + np.r_[0.0, t]))

    lo, hi = 0.0, horizon_gamma(N).gamma
    shift = np.mean(thr_and_tau(hi))
    for _ in range(200):  # lambda_min(Theta(lo)) stays above the shift
        mid = 0.5 * (lo + hi)
        if sturm_count(q, mid * t, shift) == 0:
            lo = mid
        else:
            hi = mid
    alpha = lo
    thr, tau = thr_and_tau(alpha)
    assert sturm_count(q, alpha * t, thr) == 0 and sturm_count(q, alpha * t, tau) == 1
    scan = hidden_horizon_scan(N, np.eye(N), np.array([alpha]))
    assert scan.definiteness == ["positive-definite"]
    assert scan.skipped_singular == [alpha]
    assert np.isnan(scan.max_imag[0])


@pytest.mark.parametrize("N", [2, 8, 64])
def test_positive_metric_makes_theta_inverse_K_real(N, rng):
    """The theorem the scan uses in place of an eigensolve inside gamma, checked densely."""
    q = np.arange(N) + 0.5
    couplings = np.arange(1.0, N)
    T = np.diag(couplings, 1) + np.diag(couplings, -1)
    S = T / np.sqrt(np.outer(q, q))
    gamma = 1.0 / np.max(np.abs(np.linalg.eigvalsh(S)))
    for alpha in rng.uniform(-gamma, gamma, 10):
        theta = np.diag(q) + alpha * T
        for _ in range(5):
            K = rng.normal(size=(N, N))
            K = K + K.T
            imag = np.abs(np.linalg.eigvals(np.linalg.solve(theta, K)).imag)
            assert imag.max() <= 1e-9 * np.max(np.abs(K))


@pytest.mark.parametrize("N", list(range(2, 65)) + [256, 1024, 4096])
def test_gamma_is_half_over_largest_root(N):
    """Theta(alpha) = Q (I + 2 alpha H) loses positivity at 1 + 2 alpha x_max = 0."""
    report = horizon_gamma(N)
    assert report.gamma == 0.5 / _largest_root(N)
    assert report.cross_check_residual <= 1e-10
    reference = 0.5 / roots_legendre(N)[0][-1]
    assert abs(report.gamma - reference) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("N", [16, 64, 512, 4096])
def test_gamma_bessel_limit(N):
    """gamma - 1/2 ~ j_{0,1}^2 / (4 (N + 1/2)^2), from arccos x_max ~ j_{0,1}/(N + 1/2).

    The Bessel asymptotics of the extreme Legendre zeros (Szego, Orthogonal
    Polynomials, ch. 8) give 1/(2 cos theta_1) - 1/2 ~ theta_1^2/4.
    """
    j01 = jn_zeros(0, 1)[0]
    scaled = N * (N + 1) * (horizon_gamma(N).gamma - 0.5)
    assert abs(scaled - j01**2 / 4) <= 4 / N**2


def _point_loop_labels(N, grid):
    """Definiteness of dense Theta(alpha) from its smallest eigenvalue and thr."""
    q, t = np.arange(N) + 0.5, np.arange(1.0, N)
    labels = []
    for alpha in grid:
        smallest = np.linalg.eigvalsh(np.diag(q) + alpha * (np.diag(t, 1) + np.diag(t, -1)))[0]
        thr = 1e-12 * max(q.max(), abs(alpha) * t.max())
        if smallest > thr:
            labels.append("positive-definite")
        else:
            labels.append("singular" if smallest > -thr else "indefinite")
    return labels


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 3, 8, 64, 100])
def test_threaded_scan_is_bitwise_the_point_loop(N, cpus, rng, monkeypatch):
    import os

    import qtlattice.horizons as horizons

    # stacks of at most 7 matrices in flight over all workers, on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(horizons, "_SCAN_CHUNK_BYTES", 7 * 8 * N * N)
    gamma = horizon_gamma(N).gamma
    grid = np.sort(np.r_[np.linspace(-2.0 * gamma, 3.0 * gamma, 43), gamma, -gamma])
    K = rng.normal(size=(N, N))
    K = K + K.T
    scan = hidden_horizon_scan(N, K, grid)
    max_imag, skipped = _point_loop_scan(N, K, grid)
    assert max_imag.tobytes() == scan.max_imag.tobytes()
    assert scan.skipped_singular == skipped == [-gamma, gamma]
    assert scan.definiteness == _point_loop_labels(N, grid)
    crossings = grid[max_imag > 1e-8 * np.max(np.abs(K))]
    assert scan.first_crossing == (float(crossings[0]) if len(crossings) else None)


@pytest.mark.parametrize("cpus, matrices", [(1, 10), (2, 10), (3, 10), (3, 2)])
def test_scan_stacks_share_the_budget_among_one_worker_per_cpu(cpus, matrices, rng, monkeypatch):
    import os
    import threading

    import qtlattice.horizons as horizons

    calls = []
    eigvals = np.linalg.eigvals

    def recording_eigvals(stack):
        calls.append((threading.get_ident(), len(stack)))
        return eigvals(stack)

    N = 8
    budget = matrices * 8 * N * N
    workers = min(cpus, matrices)  # no more workers than matrices in the budget
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(horizons, "_SCAN_CHUNK_BYTES", budget)
    monkeypatch.setattr(horizons.np.linalg, "eigvals", recording_eigvals)
    gamma = horizon_gamma(N).gamma
    K = rng.normal(size=(N, N))
    scan = hidden_horizon_scan(N, K + K.T, np.linspace(1.5 * gamma, 4.0 * gamma, 100))
    threads = {ident for ident, _ in calls}
    sizes = [size for _, size in calls]
    assert sum(sizes) == np.count_nonzero(~np.isnan(scan.max_imag)) == 100
    assert threading.get_ident() not in threads and len(threads) <= workers
    stacks = -(-100 // max(1, matrices // workers))  # of at most budget / workers each
    assert len(sizes) == min(100, -(-stacks // workers) * workers) and min(sizes) > 0
    assert max(sizes) - min(sizes) <= 1
    assert workers * max(sizes) * 8 * N * N <= budget

    # a scan that fits one stack runs in the calling thread
    calls.clear()
    hidden_horizon_scan(N, K + K.T, np.linspace(1.5 * gamma, 4.0 * gamma, matrices // workers))
    assert [ident for ident, _ in calls] == [threading.get_ident()]


@pytest.mark.parametrize(
    "grid", [[[0.1, 2.0], [3.0, 0.2]], [[0.1, 0.2]], 0.1, np.zeros((2, 0))]
)
def test_scan_requires_a_one_dimensional_grid(grid):
    with pytest.raises(ValueError, match="one-dimensional"):
        hidden_horizon_scan(4, np.eye(4), grid)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
def test_horizon_sizes_must_be_integers(bad):
    with pytest.raises(ValueError, match="integer"):
        horizon_gamma(bad)
    with pytest.raises(ValueError, match="integer"):
        hidden_horizon_scan(bad, np.eye(3), np.array([0.1]))


def test_threaded_scan_under_fast_thread_switching(rng, monkeypatch):
    """More workers than cores, one matrix per stack, a switch every microsecond."""
    import os
    import sys

    import qtlattice.horizons as horizons

    N = 8
    gamma = horizon_gamma(N).gamma
    grid = np.linspace(1.5 * gamma, 4.0 * gamma, 400)
    K = rng.normal(size=(N, N))
    K = K + K.T
    inline = hidden_horizon_scan(N, K, grid).max_imag
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(horizons, "_SCAN_CHUNK_BYTES", 8 * 8 * N * N)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = hidden_horizon_scan(N, K, grid).max_imag
    finally:
        sys.setswitchinterval(interval)
    assert not np.any(np.isnan(threaded))
    assert threaded.tobytes() == inline.tobytes()


def test_an_empty_grid_scans_to_an_empty_scan():
    """As `norm_trajectory` of an empty time grid: no point, no crossing (the batch-wide maximum
    of the factor's choice raised numpy's zero-size reduction error)."""
    scan = hidden_horizon_scan(4, np.eye(4), [])
    assert scan.alpha_grid.shape == scan.max_imag.shape == (0,)
    assert (scan.definiteness, scan.first_crossing, scan.skipped_singular) == ([], None, [])


def _assert_each_point_reads_as_alone(N, K, grid):
    """Label, singular skip and max_imag of every point of a scan equal those of its scan alone."""
    scan = hidden_horizon_scan(N, K, grid)
    for i, alpha in enumerate(grid):
        alone = hidden_horizon_scan(N, K, [alpha])
        assert scan.definiteness[i] == alone.definiteness[0], alpha
        assert (float(alpha) in scan.skipped_singular) == bool(alone.skipped_singular), alpha
        np.testing.assert_array_equal(scan.max_imag[i], alone.max_imag[0], err_msg=str(alpha))
    return scan


@pytest.mark.parametrize("N", [8, 64])
def test_no_point_of_a_mixed_scale_grid_depends_on_the_others(N, rng):
    """0.3, 0.6, +-2 and 40 alpha of random sign, log-uniform over 1e-300 to 1e300.  With one
    power of two for the whole grid, 12 labels, 8 skips and 12 max_imag of these 44 differed
    from the point alone at both N: 0.6 and +-2 read positive-definite, with max_imag 0."""
    grid = np.r_[0.3, 0.6, 2.0, -2.0, rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-300, 300, 40)]
    K = rng.normal(size=(N, N))
    scan = _assert_each_point_reads_as_alone(N, K + K.T, grid)
    assert scan.definiteness[:4] == ["positive-definite", "indefinite", "indefinite", "indefinite"]


def test_a_grid_as_long_as_the_matrix_scales_each_point_alone():
    """8 alpha at N = 8: a factor per matrix applied to the diagonal of length 8 would broadcast
    along the sites, not the grid, and raise no error.  gamma alone is singular and skipped;
    beside 1e300 it read positive-definite with max_imag 0, as +-2 did."""
    gamma = horizon_gamma(8).gamma
    grid = [2.0, 1e300, 0.3, -1e-300, gamma, -2.0, 0.6, -1e200]
    scan = _assert_each_point_reads_as_alone(8, np.diag(np.arange(1.0, 9.0)), grid)
    assert scan.definiteness[:5] == ["indefinite"] * 2 + ["positive-definite"] * 2 + ["singular"]
    assert gamma in scan.skipped_singular
