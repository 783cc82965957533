"""Time evolution under the lattice Hamiltonian.

H is not Hermitian in the Dirac sense, so exp(-iHt) does not conserve the
usual norm; it does conserve every Theta-norm built from the metric family.
The propagator is assembled from the exactly available biorthogonal
eigensystem: H = S diag(E) S^{-1} with S^{-1} = diag(1/n_j) S^T Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._size import _as_real, _require_finite, _require_size
from .lattice import BiorthogonalSystem, LatticeHamiltonian, biorthogonal_system, build_metric_Q
from .metrics import INTERTWINING_TOL, MetricOperator, _hamiltonian_residual


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """A nonzero state vector of finite amplitudes, `dimension` (an int) of them."""

    dimension: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dimension", _require_size(self.dimension))
        amplitudes = _require_finite(self.amplitudes, "the state")
        object.__setattr__(self, "amplitudes", amplitudes)
        if amplitudes.shape != (self.dimension,):
            raise ValueError(f"state of dimension {self.dimension} has shape {amplitudes.shape}")
        if not np.any(amplitudes):
            raise ValueError("state must be nonzero")


def propagator(H: LatticeHamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via the spectral decomposition of H, at one real and finite t.

    The eigensystem comes from `biorthogonal_system`, built once per size, so
    calls at one N share it.  With S^{-1} = diag(1/n) S^T Q, the real and
    imaginary parts are S diag(f/n) S^T Q for f = cos Et and -sin Et: one real
    product each, into its half of U, then scaled by q.  No S^{-1} is formed.
    """
    t = _as_real(t, "t", 0)
    N = H.dimension
    if t == 0.0:
        return np.eye(N, dtype=complex)
    system = biorthogonal_system(N)
    Et = system.eigenvalues.roots * t
    U = np.empty((N, N), dtype=complex)
    for part, f in ((U.real, np.cos(Et)), (U.imag, -np.sin(Et))):
        np.matmul(system.kets * (f / system.q_norms), system.kets.T, out=part)
        part *= build_metric_Q(N)
    return U


def _norms(theta: MetricOperator, v: np.ndarray) -> tuple[float, float]:
    """(x^T Theta x + y^T Theta y, x^T x + y^T y), v = x + iy: its squared Theta- and Dirac norm.

    The one positivity gate of every norm path: ValueError unless theta is
    labelled positive-definite and of the size of v, and both norms are finite
    and positive.
    """
    if theta.definiteness != "positive-definite":
        raise ValueError("theta must be positive-definite to define a norm")
    if v.shape != (theta.dimension,):
        raise ValueError("dimension mismatch between theta and the state")
    x, y = v.real.astype(float, copy=False), v.imag.astype(float, copy=False)  # no integer wrap
    with np.errstate(over="ignore", invalid="ignore"):
        norms = float(x @ theta.matrix @ x + y @ theta.matrix @ y), float(x @ x + y @ y)
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

    psi0 is expanded once in the eigenbasis of `system`, as S^T (q psi0) / n; each
    step is a phase twist w of the coefficients and the state S Re w + i S Im w, so
    no real N x N array is cast to complex.  A grid that is not 1-D, real and finite
    raises ValueError, and so do a system, Theta and psi0 of different sizes and
    every Theta or norm that `theta_norm` rejects, psi0's first (an empty grid too).
    """
    if not (system.dimension == theta.dimension == psi0.dimension):
        raise ValueError("dimension mismatch between the system, theta and the state")
    t_grid = _as_real(t_grid, "the time grid", 1)
    amplitudes = psi0.amplitudes.astype(complex)
    _norms(theta, amplitudes)
    norms = np.empty((2, len(t_grid)))
    with np.errstate(over="ignore", invalid="ignore"):  # huge amplitudes: _norms raises
        kets, weighted = system.kets, build_metric_Q(system.dimension) * amplitudes
        coefficients = (kets.T @ weighted.real + 1j * (kets.T @ weighted.imag)) / system.q_norms
        for i, t in enumerate(t_grid):
            w = np.exp(-1j * system.eigenvalues.roots * t) * coefficients
            norms[:, i] = _norms(theta, kets @ w.real + 1j * (kets @ w.imag))
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
    theta0, dirac0 = _norms(theta, psi0.amplitudes.astype(complex))
    theta_t, dirac_t = norm_trajectory(biorthogonal_system(H.dimension), theta, psi0, t_grid)
    return (
        float(np.max(np.abs(theta_t / theta0 - 1.0), initial=0.0)),
        float(np.max(np.abs(dirac_t / dirac0 - 1.0), initial=0.0)),
    )
