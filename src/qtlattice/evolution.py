"""Time evolution under the lattice Hamiltonian.

H is not Hermitian in the Dirac sense, so exp(-iHt) does not conserve the
usual norm; it does conserve every Theta-norm built from the metric family.
The propagator is assembled from the exactly available biorthogonal
eigensystem: H = S diag(E) S^{-1} with S^{-1} = diag(1/n_j) S^T Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import BiorthogonalSystem, LatticeHamiltonian, biorthogonal_system
from .metrics import MetricOperator, dieudonne_residual

__all__ = ["EvolutionState", "propagator", "theta_norm", "norm_trajectory", "norm_drift"]

COMPATIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class EvolutionState:
    """A nonzero state vector of finite amplitudes, `dimension` of them."""

    dimension: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes)
        if amplitudes.shape != (self.dimension,):
            raise ValueError(f"state of dimension {self.dimension} has shape {amplitudes.shape}")
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("state amplitudes must be finite")
        if not np.any(amplitudes):
            raise ValueError("state must be nonzero")


def propagator(H: LatticeHamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via the spectral decomposition of H; a non-finite t raises ValueError."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    N = H.dimension
    if t == 0.0:
        return np.eye(N, dtype=complex)
    system = biorthogonal_system(N)
    phases = np.exp(-1j * system.eigenvalues.roots * t)
    # S^{-1} = diag(1/n_j) S^T Q, i.e. rows are ketkets^T / n_j
    S_inv = system.ketkets.T / system.q_norms[:, None]
    return (system.kets * phases[None, :]) @ S_inv


def _norms(theta: MetricOperator, v: np.ndarray) -> tuple[float, float]:
    """(Re v^H Theta v, Re v^H v): the squared Theta-norm and Dirac norm of v."""
    return float(np.real(v.conj() @ theta.matrix @ v)), float(np.real(v.conj() @ v))


def theta_norm(theta: MetricOperator, psi: EvolutionState) -> float:
    """The squared metric norm psi^H Theta psi (real for symmetric Theta)."""
    if theta.definiteness != "positive-definite":
        raise ValueError("theta must be positive-definite to define a norm")
    return _norms(theta, psi.amplitudes)[0]


def norm_trajectory(
    system: BiorthogonalSystem,
    theta: MetricOperator,
    psi0: EvolutionState,
    t_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Theta-norm and Dirac norm of exp(-i H t) psi0 at each t of t_grid.

    psi0 is expanded once in the eigenbasis of `system`; each time step is
    then a phase twist of the coefficients.  A non-finite t raises ValueError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("the time grid must be finite")
    coefficients = (system.ketkets.T @ np.asarray(psi0.amplitudes, dtype=complex)) / system.q_norms
    norms = np.empty((2, len(t_grid)))
    for i, t in enumerate(t_grid):
        v = system.kets @ (np.exp(-1j * system.eigenvalues.roots * t) * coefficients)
        norms[:, i] = _norms(theta, v)
    return norms[0], norms[1]


def norm_drift(
    H: LatticeHamiltonian,
    theta: MetricOperator,
    psi0: EvolutionState,
    t_grid: np.ndarray,
) -> tuple[float, float]:
    """Relative drift of the Theta-norm and the Dirac norm along t_grid.

    Returns (max_theta_drift, max_dirac_drift); the former should be at
    rounding level whenever theta intertwines with H, the latter is O(1)
    because H is not Dirac-Hermitian.
    """
    if dieudonne_residual(H.to_dense(), theta) > COMPATIBILITY_TOL:
        raise ValueError("theta does not intertwine with H; norm is not conserved")
    theta_t, dirac_t = norm_trajectory(biorthogonal_system(H.dimension), theta, psi0, t_grid)
    theta0, dirac0 = _norms(theta, np.asarray(psi0.amplitudes, dtype=complex))
    return (
        float(np.max(np.abs(theta_t / theta0 - 1.0), initial=0.0)),
        float(np.max(np.abs(dirac_t / dirac0 - 1.0), initial=0.0)),
    )
