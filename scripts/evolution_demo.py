#!/usr/bin/env python3
"""Show that the lattice evolution conserves the metric norm but not the
Dirac norm (N = 4, uniform initial state, t in [0, 10]).

Usage: python scripts/evolution_demo.py
"""

import numpy as np

from qtlattice import (
    EvolutionState,
    MetricOperator,
    build_hamiltonian,
    build_metric_Q,
    norm_drift,
)


def main():
    N = 4
    theta = MetricOperator(np.diag(build_metric_Q(N)), "diagonal-Q")
    psi0 = EvolutionState(N, np.ones(N) / 2.0)
    drift_theta, drift_dirac = norm_drift(
        build_hamiltonian(N), theta, psi0, np.linspace(0.0, 10.0, 101)
    )
    print(f"max relative metric-norm drift : {drift_theta:.3e}")
    print(f"max relative Dirac-norm drift  : {drift_dirac:.3e}")


if __name__ == "__main__":
    main()
