"""Quasi-Hermitian quantum mechanics on the N-site Legendre lattice.

The model: a real asymmetric tridiagonal Hamiltonian built from the
Legendre three-term recurrence, made Hermitian by a diagonal positive
metric Q, with a full kappa-parametrized family of physical metrics,
charge operators, an observability criterion, positivity horizons of a
tridiagonal metric slice, and metric-unitary time evolution.  An
exact-rational oracle pins down the closed forms at small sizes.

Importing the package runs no numerical code and does not import numpy.
The eight library modules are registered in `sys.modules` and bound on the
package through `importlib.util.LazyLoader`; each executes on its first
attribute access; one whose execution fails (say, for want of numpy) is
put back unexecuted, so every access raises that error, as an eager import
would on every import.  Because they are real entries of `sys.modules`, tools
that find the package's modules there (a tracer that wraps their
functions, `monkeypatch`) and `from . import lattice` work as with eager
imports.  The public names below are looked up in their home module on
every access (PEP 562), so `qtlattice.roots_P` is always what
`qtlattice.legendre.roots_P` is at that moment.  `cli` is not registered:
`python -m qtlattice.cli` would warn that it is already in `sys.modules`.

First access to a lazy module is not thread-safe on Python 3.11 (the
loader gained a lock in 3.12).  Each module binds what it uses from the
others when it executes, so by the time the reality scan starts its thread
pool, every module that its workers touch has run.  A caller that spreads
first accesses over several threads should touch the package first.
"""

# One space-separated string per module: where no bytecode is cached, every
# import compiles this file, and a string compiles faster than a tuple.
_EXPORTS = {
    "legendre": "RootSet roots_P",
    "lattice": "BiorthogonalSystem LatticeHamiltonian biorthogonal_system build_hamiltonian"
    " build_metric_Q ket spectrum",
    "metrics": "ChargeOperator KappaVector MetricOperator charge_operator exceptional_kappa"
    " kappa_from_metric metric_from_kappa tridiagonal_metric",
    "horizons": "HorizonReport RealityScan hidden_horizon_scan horizon_gamma",
    "observables": "ObservableSpectralData OverlapPair criterion_product_hermitian"
    " dieudonne_residual observable_from_hermitian overlap_matrices spectral_data",
    "evolution": "EvolutionState norm_drift norm_trajectory propagator theta_norm",
    "exact": "exact_exceptional_identity exact_intertwining_check"
    " exact_intertwining_check_factorial exact_tridiagonal_solve",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    """Put a not yet executed qtlattice.<name> into sys.modules and on the package."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader, execute = spec.loader, spec.loader.exec_module

    def exec_module(module):
        # On failure the module goes back to unexecuted and lazy, so that each
        # access runs it again.  The class is reset first: from Python 3.12 the
        # loader keeps the lazy class until execution succeeds.
        initial = dict(module.__dict__)
        try:
            execute(module)
        except BaseException:
            module.__class__ = type(sys)
            module.__dict__.clear()
            module.__dict__.update(initial)
            importlib.util.LazyLoader(loader).exec_module(module)
            raise

    loader.exec_module = exec_module
    spec.loader = importlib.util.LazyLoader(loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _module in ("tridiagonal", *_EXPORTS):
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
