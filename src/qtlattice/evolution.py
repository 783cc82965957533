"""Time evolution under the lattice Hamiltonian.

H is not Hermitian in the Dirac sense, so exp(-iHt) does not conserve the
usual norm; it does conserve every Theta-norm built from the metric family.
The propagator is assembled from the exactly available biorthogonal
eigensystem: H = S diag(E) S^{-1} with S^{-1} = diag(1/n_j) S^T Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._size import _require_size
from .lattice import BiorthogonalSystem, LatticeHamiltonian, biorthogonal_system
from .metrics import INTERTWINING_TOL, MetricOperator, _as_real, _hamiltonian_residual
from .metrics import _require_finite


@dataclass(frozen=True)
class EvolutionState:
    """A nonzero state vector of finite amplitudes, `dimension` of them."""

    dimension: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _require_size(self.dimension)
        amplitudes = np.asarray(self.amplitudes)
        object.__setattr__(self, "amplitudes", amplitudes)
        if amplitudes.shape != (self.dimension,):
            raise ValueError(f"state of dimension {self.dimension} has shape {amplitudes.shape}")
        _require_finite(amplitudes, "the state")
        if not np.any(amplitudes):
            raise ValueError("state must be nonzero")


def propagator(H: LatticeHamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via the spectral decomposition of H; a non-finite t raises ValueError.

    The eigensystem comes from `biorthogonal_system`, which is built once per
    size, so repeated calls at one N share it.  S and S^{-1} are real, so the
    real and imaginary parts are two real products, S diag(cos Et) S^{-1} and
    S diag(-sin Et) S^{-1}, written into one complex array.
    """
    t = _as_real(t, "t")
    _require_finite(t, "t")
    N = H.dimension
    if t == 0.0:
        return np.eye(N, dtype=complex)
    system = biorthogonal_system(N)
    Et = system.eigenvalues.roots * t
    # S^{-1} = diag(1/n_j) S^T Q, i.e. rows are ketkets^T / n_j
    S_inv = system.ketkets.T / system.q_norms[:, None]
    U = np.empty((N, N), dtype=complex)
    U.real = (system.kets * np.cos(Et)[None, :]) @ S_inv
    U.imag = (system.kets * -np.sin(Et)[None, :]) @ S_inv
    return U


def _norms(theta: MetricOperator, v: np.ndarray) -> tuple[float, float]:
    """(Re v^H Theta v, Re v^H v): the squared Theta-norm and Dirac norm of v.

    The one positivity gate of every norm path: ValueError unless theta is
    labelled positive-definite and holds finite numbers, and both norms are
    finite and positive.
    """
    if theta.definiteness != "positive-definite":
        raise ValueError("theta must be positive-definite to define a norm")
    _require_finite(theta.matrix, "theta")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = float(np.real(v.conj() @ theta.matrix @ v)), float(np.real(v.conj() @ v))
    if not all(0.0 < norm < np.inf for norm in norms):  # False for NaN
        raise ValueError("the norms of the state are not finite and positive")
    return norms


def theta_norm(theta: MetricOperator, psi: EvolutionState) -> float:
    """The squared metric norm psi^H Theta psi (real for symmetric Theta)."""
    return _norms(theta, psi.amplitudes)[0]


def norm_trajectory(
    system: BiorthogonalSystem,
    theta: MetricOperator,
    psi0: EvolutionState,
    t_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Theta-norm and Dirac norm of exp(-i H t) psi0 at each t of t_grid.

    psi0 is expanded once in the eigenbasis of `system`; each time step is
    then a phase twist of the coefficients.  A non-finite t raises ValueError,
    and so does every Theta or norm that `theta_norm` rejects, on an empty
    grid too: there psi0 itself goes through the gate.
    """
    t_grid = _as_real(t_grid, "the time grid")
    _require_finite(t_grid, "the time grid")
    amplitudes = np.asarray(psi0.amplitudes, dtype=complex)
    if not len(t_grid):
        _norms(theta, amplitudes)
    norms = np.empty((2, len(t_grid)))
    with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes: _norms raises
        coefficients = (system.ketkets.T @ amplitudes) / system.q_norms
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
    because H is not Dirac-Hermitian.  Theta must pass the norm checks of
    `theta_norm` and intertwine with H: dieudonne_residual(H, theta) <= 1e-10,
    which a Theta with NaN or inf entries fails.
    """
    if not _hamiltonian_residual(H, theta) <= INTERTWINING_TOL:
        raise ValueError("theta does not intertwine with H; norm is not conserved")
    theta0, dirac0 = _norms(theta, np.asarray(psi0.amplitudes, dtype=complex))
    theta_t, dirac_t = norm_trajectory(biorthogonal_system(H.dimension), theta, psi0, t_grid)
    return (
        float(np.max(np.abs(theta_t / theta0 - 1.0), initial=0.0)),
        float(np.max(np.abs(dirac_t / dirac0 - 1.0), initial=0.0)),
    )
