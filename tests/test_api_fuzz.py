"""Hypothesis fuzz over the public API: the counterpart of the CLI fuzz.

Every call either raises ValueError or returns finite values, and no
non-finite input comes back labelled positive-definite.  Complex and text
input is a ValueError wherever the library takes real numbers.
"""

import numpy as np
import pytest
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
    hidden_horizon_scan,
    ket,
    metric_from_kappa,
    norm_drift,
    norm_trajectory,
    observable_from_hermitian,
    propagator,
    theta_norm,
    tridiagonal_metric,
)

SPECIAL = [np.nan, np.inf, -np.inf, -1.0, 0.0, 2.5, 1e308, -1e308]
TEXT = ["0.1", "2", "nan", "x", ""]
sizes = st.one_of(st.integers(-1, 8), st.sampled_from([2.5, True, False, np.int64(3)]))
scalars = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from(SPECIAL),
    st.complex_numbers(max_magnitude=10.0),
    st.sampled_from(TEXT),
)
shapes = st.sampled_from([(), (0,), (1,), (2,), (3,), (2, 2), (3, 3), (2, 3), (2, 2, 2)])


@st.composite
def arrays(draw, shape=None):
    """Finite entries, one of them replaced by a special value a third of the time.

    One array in five is complex (its imaginary parts may all be zero), and one in five is text.
    """
    shape = draw(shapes) if shape is None else shape
    size = int(np.prod(shape))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
    if size and draw(st.integers(0, 2)) == 0:
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(SPECIAL))
    array = np.array(values, dtype=float).reshape(shape)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return array + 1j * draw(st.floats(-10.0, 10.0))
    return array.astype(str) if kind == 1 else array


@st.composite
def square_or_not(draw, N):
    """Mostly an N x N matrix, mostly symmetric; otherwise any array."""
    if draw(st.integers(0, 3)) == 0:
        return draw(arrays())
    matrix = draw(arrays((N, N)))
    if draw(st.integers(0, 3)) == 0:
        return matrix
    return np.where(np.triu(np.ones((N, N), dtype=bool)), matrix, matrix.T)


@st.composite
def any_metric(draw, N):
    """A tridiagonal family member, or any array under either label, NaN ones included."""
    if draw(st.booleans()):
        return tridiagonal_metric(N, draw(st.floats(-2.0, 2.0)))
    label = draw(st.sampled_from(["positive-definite", "indefinite"]))
    return MetricOperator(N, draw(square_or_not(N)), label, "external")


def real(value):
    """True for real numbers: what the library takes where it converts to float."""
    return np.asarray(value).dtype.kind in "biuf"


def finite(*values):
    return all(np.all(np.isfinite(np.asarray(value, dtype=complex))) for value in values)


def assert_honest(theta, *inputs):
    assert finite(theta.matrix)
    assert theta.definiteness in ("positive-definite", "singular", "indefinite")
    assert finite(*inputs) or theta.definiteness != "positive-definite"


def valid_size(N, minimum=1):
    return isinstance(N, (int, np.integer)) and not isinstance(N, bool) and N >= minimum


def call(function, *args):
    """function(*args), or None when it raised ValueError."""
    try:
        return function(*args)
    except ValueError:
        return None


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(N=sizes)
def test_build_hamiltonian(N):
    H = call(build_hamiltonian, N)
    Q = call(build_metric_Q, N)
    assert (H is not None) == (Q is not None) == valid_size(N)
    if H is not None:
        assert H.dimension == N and type(H.dimension) is int and Q.shape == (N,)
        assert H.superdiagonal.shape == H.subdiagonal.shape == (N - 1,)
        assert finite(H.superdiagonal, H.subdiagonal, Q)


@SETTINGS
@given(N=sizes, alpha=scalars)
def test_tridiagonal_metric(N, alpha):
    theta = call(tridiagonal_metric, N, alpha)
    if theta is not None:
        assert valid_size(N, 2) and real(alpha) and theta.matrix.shape == (N, N)
        assert_honest(theta, alpha)


@SETTINGS
@given(N=st.integers(1, 6), data=st.data())
def test_metric_from_kappa(N, data, system_cache):
    values = data.draw(st.one_of(arrays(), arrays((N,))))
    kappa = call(KappaVector, N, values)
    if kappa is None:
        return
    assert real(values)
    theta = call(metric_from_kappa, system_cache(N), kappa)
    if theta is not None:
        assert_honest(theta, values)


@SETTINGS
@given(data=st.data())
def test_from_matrix(data):
    matrix = data.draw(st.one_of(arrays(), square_or_not(data.draw(st.integers(1, 4)))))
    theta = call(MetricOperator.from_matrix, matrix)
    if theta is not None:
        assert theta.matrix.shape == (theta.dimension, theta.dimension) and theta.dimension >= 1
        assert real(matrix)
        assert_honest(theta, matrix)


@SETTINGS
@given(N=st.one_of(st.integers(2, 8), sizes), data=st.data())
def test_hidden_horizon_scan(N, data):
    K = data.draw(square_or_not(N if valid_size(N) and N <= 8 else 2))
    grid = data.draw(st.one_of(st.integers(0, 6).flatmap(lambda k: arrays((k,))), arrays()))
    scan = call(hidden_horizon_scan, N, K, grid)
    if scan is None:
        return
    assert real(K) and real(grid)
    assert finite(K, grid) and scan.max_imag.shape == scan.alpha_grid.shape == (len(grid),)
    skipped = np.isin(scan.alpha_grid, scan.skipped_singular)
    assert finite(scan.max_imag[~skipped]) and np.all(np.isnan(scan.max_imag[skipped]))
    assert len(scan.definiteness) == len(grid)
    assert scan.first_crossing is None or np.isfinite(scan.first_crossing)


@SETTINGS
@given(N=sizes, E=st.one_of(scalars, arrays()))
def test_ket(N, E):
    column = call(ket, N, E)
    if column is not None:
        assert valid_size(N) and real(E) and column.shape == (N, *np.shape(E)) and finite(E, column)


@SETTINGS
@given(N=st.integers(1, 8), t=scalars)
def test_propagator(N, t):
    U = call(propagator, build_hamiltonian(N), t)
    assert (U is None) == (not (real(t) and np.isfinite(t)))
    if U is not None:
        assert U.shape == (N, N) and finite(U)


@SETTINGS
@given(dimension=sizes, amplitudes=arrays())
def test_evolution_state(dimension, amplitudes):
    state = call(EvolutionState, dimension, amplitudes)
    if state is not None:
        assert valid_size(dimension) and state.amplitudes.shape == (dimension,)
        assert finite(state.amplitudes) and np.any(state.amplitudes)


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_norm_drift(N, data):
    """Metrics of every kind, including NaN ones labelled positive-definite."""
    label = data.draw(st.sampled_from(["positive-definite", "indefinite"]))
    if data.draw(st.booleans()):
        theta = tridiagonal_metric(N, data.draw(st.floats(-2.0, 2.0)))
    else:
        theta = MetricOperator(N, data.draw(square_or_not(N)), label, "external")
    amplitudes = data.draw(arrays((N,)))
    psi0 = call(EvolutionState, N, amplitudes)
    t_grid = data.draw(st.integers(1, 4).flatmap(lambda k: arrays((k,))))
    if psi0 is None:
        return
    drift = call(norm_drift, build_hamiltonian(N), theta, psi0, t_grid)
    if drift is not None:
        assert theta.definiteness == "positive-definite" and real(theta.matrix) and real(t_grid)
        assert finite(theta.matrix, t_grid, drift)


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_observables_of_any_metric(N, data):
    theta = data.draw(any_metric(N))
    observable = call(observable_from_hermitian, data.draw(square_or_not(N)), theta)
    residual = call(dieudonne_residual, data.draw(square_or_not(N)), theta)
    charge = call(charge_operator, build_metric_Q(N), theta)
    assert observable is None or finite(observable)
    assert residual is None or finite(residual)
    assert charge is None or finite(charge.matrix)


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_charge_operator_of_any_q(N, data):
    q = data.draw(st.one_of(arrays(), arrays((N,))))
    charge = call(charge_operator, q, data.draw(any_metric(N)))
    if charge is not None:
        assert q.shape == (N,) and real(q) and finite(q, charge.matrix) and np.all(q > 0)


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_norms_of_any_metric(N, data, system_cache):
    """Every norm path returns finite positive norms of a positive-definite Theta, or raises."""
    theta = data.draw(any_metric(N))
    psi0 = call(EvolutionState, N, data.draw(arrays((N,))))
    t_grid = data.draw(st.integers(1, 4).flatmap(lambda k: arrays((k,))))
    if psi0 is None:
        return
    for norms in (
        call(theta_norm, theta, psi0),
        call(norm_trajectory, system_cache(N), theta, psi0, t_grid),
    ):
        if norms is not None:
            assert theta.definiteness == "positive-definite"
            assert finite(norms) and np.all(np.asarray(norms) > 0)


HUGE = {
    "alpha t": lambda: tridiagonal_metric(4, 1e308),
    "kappa product": lambda: metric_from_kappa(biorthogonal_system(4), KappaVector(4, [1e308] * 4)),
    "scan alpha t": lambda: hidden_horizon_scan(4, np.eye(4), [0.1, 1e308]),
    "scan tau": lambda: hidden_horizon_scan(4, np.eye(4), [5e307]),
    "Legendre column": lambda: ket(1024, 2.0),
    "K - K^T": lambda: hidden_horizon_scan(2, [[0.0, 1e308], [-1e308, 0.0]], [0.1]),
    "state norm": lambda: norm_drift(
        build_hamiltonian(2), tridiagonal_metric(2, 0.0), EvolutionState(2, [1e308, 0.0]), [0.0]
    ),
    "norm underflow": lambda: norm_drift(
        build_hamiltonian(2), tridiagonal_metric(2, 0.0), EvolutionState(2, [0.0, 1e-200]), [0.0]
    ),
    "zero metric": lambda: norm_drift(
        build_hamiltonian(2),
        MetricOperator(2, np.zeros((2, 2)), "positive-definite", "external"),
        EvolutionState(2, [1.0, 0.0]),
        [0.0],
    ),
}


@pytest.mark.parametrize("case", HUGE)
def test_overflow_is_a_value_error_without_a_warning(case):
    """Finite inputs whose products overflow (or underflow to a zero norm)."""
    with pytest.raises(ValueError):
        HUGE[case]()


# Each entry point that takes real numbers, with one entry of the named argument replaced.
REAL_ARGUMENTS = {
    "tridiagonal_metric alpha": ("alpha", lambda x: tridiagonal_metric(3, x)),
    "KappaVector values": ("kappa", lambda x: KappaVector(2, [x, 1.0])),
    "ket E": ("E", lambda x: ket(3, x)),
    "propagator t": ("t", lambda x: propagator(build_hamiltonian(4), x)),
    "charge_operator q": ("q", lambda x: charge_operator([x, 1.5], tridiagonal_metric(2, 0.1))),
    "hidden_horizon_scan K": ("K", lambda x: hidden_horizon_scan(2, [[x, 0.0], [0.0, 1.0]], [0.1])),
    "hidden_horizon_scan grid": ("alpha grid", lambda x: hidden_horizon_scan(2, np.eye(2), [0.1, x])),
    "MetricOperator.from_matrix": ("matrix", lambda x: MetricOperator.from_matrix([[x, 0.0], [0.0, 1.0]])),
    "observable_from_hermitian K": (
        "K", lambda x: observable_from_hermitian([[x, 0.0], [0.0, 1.0]], tridiagonal_metric(2, 0.1))
    ),
    "norm_trajectory t_grid": (
        "time grid",
        lambda x: norm_trajectory(
            biorthogonal_system(2), tridiagonal_metric(2, 0.1), EvolutionState(2, [1.0, 0.0]), [0.0, x]
        ),
    ),
}


@pytest.mark.parametrize("value", [0.1 + 2j, 0.1 + 0j, "0.1"], ids=["complex", "zero-imag", "text"])
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_complex_and_text_are_a_value_error_naming_the_argument(entry, value):
    """Never the real part (with only numpy's ComplexWarning) and never text parsed as a number."""
    name, function = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"{name} must be real numbers"):
        function(value)


def test_exports_are_defined_in_their_home_module():
    """Each public name lives in the one module that `_EXPORTS` lists it under."""
    import qtlattice

    misplaced = [
        (name, getattr(qtlattice, name).__module__)
        for module, names in qtlattice._EXPORTS.items()
        for name in names.split()
        if getattr(qtlattice, name).__module__ != f"qtlattice.{module}"
    ]
    assert misplaced == []


def test_public_names_are_pinned():
    """The package's public surface; adding or deleting a name shows in this list.

    dir(), not vars(): the package binds its names lazily (PEP 562).
    """
    import types

    import qtlattice

    public = sorted(
        name
        for name in dir(qtlattice)
        if not name.startswith("_") and not isinstance(getattr(qtlattice, name), types.ModuleType)
    )
    assert public == [
        "BiorthogonalSystem", "ChargeOperator", "EvolutionState", "HorizonReport",
        "KappaVector", "LatticeHamiltonian", "MetricOperator", "ObservableSpectralData",
        "OverlapPair", "RealityScan", "RootSet", "biorthogonal_system", "build_hamiltonian",
        "build_metric_Q", "charge_operator", "criterion_product_hermitian",
        "dieudonne_residual", "exact_exceptional_identity", "exact_intertwining_check",
        "exact_intertwining_check_factorial", "exact_tridiagonal_solve", "exceptional_kappa",
        "hidden_horizon_scan", "horizon_gamma", "kappa_from_metric", "ket",
        "metric_from_kappa", "norm_drift", "norm_trajectory", "observable_from_hermitian",
        "overlap_matrices", "propagator", "roots_P", "spectral_data", "spectrum",
        "theta_norm", "tridiagonal_metric",
    ]
