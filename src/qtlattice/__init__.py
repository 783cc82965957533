"""Quasi-Hermitian quantum mechanics on the N-site Legendre lattice.

The model: a real asymmetric tridiagonal Hamiltonian built from the
Legendre three-term recurrence, made Hermitian by a diagonal positive
metric Q, with a full kappa-parametrized family of physical metrics,
charge operators, an observability criterion, positivity horizons of a
tridiagonal metric slice, and metric-unitary time evolution.  An
exact-rational oracle pins down the closed forms at small sizes.
"""

from .legendre import RootSet, roots_P
from .lattice import (
    BiorthogonalSystem,
    DiagonalMetric,
    LatticeHamiltonian,
    biorthogonal_system,
    build_hamiltonian,
    build_metric_Q,
    ket,
    spectrum,
)
from .metrics import (
    ChargeOperator,
    KappaVector,
    MetricOperator,
    TridiagonalMetricFamily,
    charge_operator,
    exceptional_kappa,
    kappa_from_metric,
    metric_from_kappa,
    tridiagonal_metric,
)
from .horizons import (
    HorizonReport,
    RealityScan,
    hidden_horizon_scan,
    horizon_gamma,
)
from .observables import (
    ObservableSpectralData,
    OverlapPair,
    criterion_product_hermitian,
    dieudonne_residual,
    observable_from_hermitian,
    overlap_matrices,
    spectral_data,
)
from .evolution import EvolutionState, norm_drift, norm_trajectory, propagator, theta_norm
from .exact import (
    exact_exceptional_identity,
    exact_intertwining_check,
    exact_intertwining_check_factorial,
    exact_tridiagonal_solve,
)

__version__ = "0.1.0"
