"""Hypothesis fuzz over the public API: the counterpart of the CLI fuzz.

Every call either raises ValueError or returns finite values, and no
non-finite input comes back labelled positive-definite.  Complex, text,
object, NaN and inf input, and input of the wrong rank, is a ValueError
naming the argument wherever the library takes real numbers, and a ragged
nest is one wherever it reads an array.
"""

import copy
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlattice import (
    EvolutionState,
    KappaVector,
    MetricOperator,
    OverlapPair,
    biorthogonal_system,
    build_hamiltonian,
    build_metric_Q,
    charge_operator,
    criterion_product_hermitian,
    dieudonne_residual,
    hidden_horizon_scan,
    ket,
    metric_from_kappa,
    norm_drift,
    norm_trajectory,
    observable_from_hermitian,
    propagator,
    spectral_data,
    theta_norm,
    tridiagonal_metric,
)
from qtlattice._size import _rescaled
from qtlattice.tridiagonal import sturm_count

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
    """A tridiagonal family member, or any array; None where the array, a NaN or an
    asymmetric one for instance, does not build a MetricOperator."""
    if draw(st.booleans()):
        return tridiagonal_metric(N, draw(st.floats(-2.0, 2.0)))
    matrix = draw(square_or_not(N))
    theta = call(MetricOperator, matrix)
    if theta is not None:  # built: a real, finite, square matrix with the label it earns
        assert real(matrix) and theta.matrix.dtype == float
        assert theta.matrix.shape == (theta.dimension,) * 2 == np.shape(matrix)
        assert_honest(theta, matrix)
    return theta


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
def test_metric_operator(data):
    matrix = data.draw(st.one_of(arrays(), square_or_not(data.draw(st.integers(1, 4)))))
    theta = call(MetricOperator, matrix)
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
    """Metrics of every kind, any real finite symmetric matrix among them."""
    theta = data.draw(any_metric(N))
    amplitudes = data.draw(arrays((N,)))
    psi0 = call(EvolutionState, N, amplitudes)
    t_grid = data.draw(st.integers(1, 4).flatmap(lambda k: arrays((k,))))
    if theta is None or psi0 is None:
        return
    drift = call(norm_drift, build_hamiltonian(N), theta, psi0, t_grid)
    if drift is not None:
        assert theta.definiteness == "positive-definite" and real(theta.matrix) and real(t_grid)
        assert finite(theta.matrix, t_grid, drift)


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_observables_of_any_metric(N, data):
    theta = data.draw(any_metric(N))
    if theta is None:
        return
    observable = call(observable_from_hermitian, data.draw(square_or_not(N)), theta)
    residual = call(dieudonne_residual, data.draw(square_or_not(N)), theta)
    charge = call(charge_operator, build_metric_Q(N), theta)
    assert observable is None or finite(observable)
    assert residual is None or finite(residual)
    assert charge is None or finite(charge.matrix)


# n / 4 for |n| <= 16, and half the sum of two, times 2^k is exact for -1071 <= k <= 1021,
# complex moduli included
quarters = st.integers(-16, 16).map(lambda n: n / 4)


@SETTINGS
@given(N=st.integers(3, 6), k=st.integers(-1071, 1021), data=st.data())
def test_verdicts_are_scale_free_across_the_float_range(N, k, data):
    """2^k Theta has the label of Theta on the Sturm and on the Cholesky path; in one batch, a
    banded Theta beside 2^k Theta has its Sturm counts alone once each is rescaled by its own
    power of two, as the callers do, and in one scan Theta(alpha) beside
    Theta(2^k alpha) its label alone; 2^k Lambda against Theta, and Lambda against 2^k Theta,
    the Dieudonne residual of Lambda against Theta; and 2^k M the criterion's verdict on M, for
    k across the whole float range."""

    def draw(shape):
        size = int(np.prod(shape))
        return np.reshape(data.draw(st.lists(quarters, min_size=size, max_size=size)), shape)

    c = 2.0**k
    dense = np.triu(draw((N, N)))
    dense += np.triu(dense, 1).T
    dense[0, -1] = dense[-1, 0] = 0.25  # off the three central diagonals: the Cholesky path
    banded = np.triu(np.tril(dense, 1), -1)  # the Sturm path
    for theta in (banded, dense):
        assert MetricOperator(c * theta).definiteness == MetricOperator(theta).definiteness
    # one batch whose members differ in scale by 2^k: each reads as it does alone
    # behind the callers' rescale, each member times its own power of two
    bands = np.diagonal(banded), np.diagonal(banded, -1), np.array([data.draw(quarters)])
    members = [np.stack((x, c * x), axis=-1) for x in bands]
    counts = sturm_count(*_rescaled(np.abs(np.concatenate(members)).max(axis=0), *members))
    assert counts.tolist() == [sturm_count(*bands).tolist() * 2]
    # |alpha| <= 1/4 keeps alpha t and the scan's singular tolerance finite at every k
    alphas = np.array([1.0, c]) * data.draw(quarters) / 16
    labels = [tridiagonal_metric(N, alpha).definiteness for alpha in alphas]
    assert hidden_horizon_scan(N, np.eye(N), alphas).definiteness == labels
    theta = MetricOperator(dense)
    Lambda = draw((N, N)) + 1j * draw((N, N)) if data.draw(st.booleans()) else draw((N, N))
    residual = dieudonne_residual(Lambda, theta)
    assert dieudonne_residual(c * Lambda, theta) == residual
    assert dieudonne_residual(Lambda, MetricOperator(c * dense)) == residual
    M = draw((N, N)) + 1j * draw((N, N))
    if data.draw(st.booleans()):
        M = (M + M.conj().T) / 2  # Hermitian
    for tol in (1e-10, 0.5):
        verdict = criterion_product_hermitian(OverlapPair(M), tol)
        assert criterion_product_hermitian(OverlapPair(c * M), tol) == verdict


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_charge_operator_of_any_q(N, data):
    q, theta = data.draw(st.one_of(arrays(), arrays((N,)))), data.draw(any_metric(N))
    charge = None if theta is None else call(charge_operator, q, theta)
    if charge is not None:
        assert q.shape == (N,) and real(q) and finite(q, charge.matrix) and np.all(q > 0)


@SETTINGS
@given(N=st.integers(2, 6), data=st.data())
def test_norms_of_any_metric(N, data, system_cache):
    """Every norm path returns finite positive norms of a positive-definite Theta, or raises."""
    theta = data.draw(any_metric(N))
    psi0 = call(EvolutionState, N, data.draw(arrays((N,))))
    t_grid = data.draw(st.integers(1, 4).flatmap(lambda k: arrays((k,))))
    if theta is None or psi0 is None:
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
        MetricOperator(np.zeros((2, 2))),
        EvolutionState(2, [1.0, 0.0]),
        [0.0],
    ),
}


@pytest.mark.parametrize("case", HUGE)
def test_overflow_is_a_value_error_without_a_warning(case):
    """Finite inputs whose products overflow (or underflow to a zero norm)."""
    with pytest.raises(ValueError):
        HUGE[case]()


def test_an_overflowing_scan_tolerance_names_the_alpha_grid():
    """alpha t = 1.5e308 is finite, but tau = 1e-12 (7/2 + 5 |alpha|) overflows: the error names
    the argument that was given, not the shift of a Sturm count."""
    with pytest.raises(ValueError, match="alpha grid"):
        hidden_horizon_scan(4, np.eye(4), [5e307])


# Each entry point that takes real numbers, with one entry of the named argument replaced.
REAL_ARGUMENTS = {
    "tridiagonal_metric alpha": ("alpha", lambda x: tridiagonal_metric(3, x)),
    "KappaVector values": ("kappa", lambda x: KappaVector(2, [x, 1.0])),
    "ket E": ("E", lambda x: ket(3, x)),
    "propagator t": ("t", lambda x: propagator(build_hamiltonian(4), x)),
    "charge_operator q": ("q", lambda x: charge_operator([x, 1.5], tridiagonal_metric(2, 0.1))),
    "hidden_horizon_scan K": ("K", lambda x: hidden_horizon_scan(2, [[x, 0.0], [0.0, 1.0]], [0.1])),
    "hidden_horizon_scan grid": ("alpha grid", lambda x: hidden_horizon_scan(2, np.eye(2), [0.1, x])),
    "observable_from_hermitian K": (
        "K", lambda x: observable_from_hermitian([[x, 0.0], [0.0, 1.0]], tridiagonal_metric(2, 0.1))
    ),
    "norm_trajectory t_grid": (
        "time grid",
        lambda x: norm_trajectory(
            biorthogonal_system(2), tridiagonal_metric(2, 0.1), EvolutionState(2, [1.0, 0.0]), [0.0, x]
        ),
    ),
    "MetricOperator matrix": ("theta", lambda x: MetricOperator([[x, 0.0], [0.0, 1.5]])),
}


@pytest.mark.parametrize(
    "value", [0.1 + 2j, 0.1 + 0j, "0.1", Decimal("0.1")], ids=["complex", "zero-imag", "text", "object"]
)
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_complex_and_text_are_a_value_error_naming_the_argument(entry, value):
    """Never the real part (with only numpy's ComplexWarning), never text parsed as a number and
    never an object array (a Decimal) converted entry by entry."""
    name, function = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"{name} must be real numbers"):
        function(value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_nan_and_inf_are_a_value_error_naming_the_argument(entry, value):
    name, function = REAL_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"{name} is not finite"):
        function(value)


# The same entry points, each with its argument at a wrong rank (ket takes energies of any shape),
# and a MetricOperator whose matrix is not square.
WRONG_RANKS = {
    "tridiagonal_metric alpha": ("alpha must be one number", lambda: tridiagonal_metric(3, [0.1])),
    "KappaVector values": ("kappa must be one-dimensional", lambda: KappaVector(2, [[1.0, 2.0]])),
    "propagator t": ("t must be one number", lambda: propagator(build_hamiltonian(4), [[0.1]])),
    "charge_operator q": (
        "q must be one-dimensional", lambda: charge_operator(0.5, tridiagonal_metric(2, 0.1))
    ),
    "hidden_horizon_scan K": (
        "K must be two-dimensional", lambda: hidden_horizon_scan(2, [1.0, 0.0], [0.1])
    ),
    "hidden_horizon_scan grid": (
        "alpha grid must be one-dimensional", lambda: hidden_horizon_scan(2, np.eye(2), [[0.1, 0.2]])
    ),
    "observable_from_hermitian K": (
        "K must be two-dimensional",
        lambda: observable_from_hermitian([1.0, 0.0], tridiagonal_metric(2, 0.1)),
    ),
    "norm_trajectory t_grid": (
        "time grid must be one-dimensional",
        lambda: norm_trajectory(
            biorthogonal_system(2), tridiagonal_metric(2, 0.1), EvolutionState(2, [1.0, 0.0]), 0.5
        ),
    ),
    "MetricOperator matrix 1-D": (
        "theta must be two-dimensional", lambda: MetricOperator([1.0, 0.0])
    ),
    "MetricOperator matrix 3-D": (
        "theta must be two-dimensional", lambda: MetricOperator(np.ones((2, 2, 2)))
    ),
    "MetricOperator matrix not square": (
        "expected a nonempty square theta", lambda: MetricOperator(np.ones((2, 3)))
    ),
}


@pytest.mark.parametrize("entry", WRONG_RANKS)
def test_a_wrong_rank_is_a_value_error_naming_the_argument(entry):
    message, call = WRONG_RANKS[entry]
    with pytest.raises(ValueError, match=message):
        call()


# Every public entry point that reads an array, with that argument a ragged nest.
RAGGED = [[1.0, 2.0], [3.0]]
RAGGED_ARGUMENTS = {
    "MetricOperator matrix": ("theta", MetricOperator),
    "KappaVector values": ("kappa", lambda x: KappaVector(2, x)),
    "EvolutionState amplitudes": ("the state", lambda x: EvolutionState(2, x)),
    "OverlapPair M": ("M", OverlapPair),
    "spectral_data Lambda": ("Lambda", spectral_data),
    "dieudonne_residual Lambda": ("Lambda", lambda x: dieudonne_residual(x, tridiagonal_metric(2, 0.1))),
    "observable_from_hermitian K": (
        "K", lambda x: observable_from_hermitian(x, tridiagonal_metric(2, 0.1))
    ),
    "hidden_horizon_scan K": ("K", lambda x: hidden_horizon_scan(2, x, [0.1])),
    "hidden_horizon_scan grid": ("alpha grid", lambda x: hidden_horizon_scan(2, np.eye(2), x)),
    "charge_operator q": ("q", lambda x: charge_operator(x, tridiagonal_metric(2, 0.1))),
    "norm_trajectory t_grid": (
        "time grid",
        lambda x: norm_trajectory(
            biorthogonal_system(2), tridiagonal_metric(2, 0.1), EvolutionState(2, [1.0, 0.0]), x
        ),
    ),
    "ket E": ("E", lambda x: ket(3, x)),
}


@pytest.mark.parametrize("entry", RAGGED_ARGUMENTS)
def test_a_ragged_nest_is_a_value_error_naming_the_argument(entry):
    """Never numpy's "inhomogeneous shape" message, which names neither the argument nor the rule."""
    name, function = RAGGED_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"{name} must be (real )?numbers, not ragged input"):
        function(RAGGED)


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


def _value_types():
    """One instance of each public type that holds an array."""
    import qtlattice as qt

    system = qt.biorthogonal_system(3)
    kappa = qt.exceptional_kappa(system)
    H = qt.build_hamiltonian(3)
    data = qt.spectral_data(np.diag(H.superdiagonal, 1) + np.diag(H.subdiagonal, -1))
    return {
        "RootSet": qt.roots_P(3),
        "LatticeHamiltonian": qt.LatticeHamiltonian(3),
        "BiorthogonalSystem": system,
        "KappaVector": kappa,
        "MetricOperator": qt.MetricOperator(np.eye(2)),
        "ChargeOperator": qt.charge_operator(qt.build_metric_Q(3), qt.tridiagonal_metric(3, 0.1)),
        "RealityScan": qt.hidden_horizon_scan(2, np.eye(2), [0.0, 1.0]),
        "ObservableSpectralData": data,
        "OverlapPair": qt.overlap_matrices(system, kappa, data),
        "EvolutionState": qt.EvolutionState(2, [1.0, 0.0]),
    }


@pytest.mark.parametrize(
    "name",
    ["RootSet", "LatticeHamiltonian", "BiorthogonalSystem", "KappaVector", "MetricOperator",
     "ChargeOperator", "RealityScan", "ObservableSpectralData", "OverlapPair", "EvolutionState"],
)
def test_value_types_compare_by_identity(name):
    """An array field has no truth value, so these types compare and hash by identity."""
    value = _value_types()[name]
    assert type(value).__name__ == name
    assert value == value and value != copy.copy(value)
    assert {value, value} == {value} and hash(value) == hash(value)


def test_horizon_report_compares_by_value():
    import qtlattice as qt

    report = qt.horizon_gamma(4)
    assert report == copy.copy(report) and hash(report) == hash(copy.copy(report))


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
