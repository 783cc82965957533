import numpy as np
import pytest

from qtlattice import biorthogonal_system, build_hamiltonian, lattice


def dense_hamiltonian(N):
    """H of size N as a dense array, from its two bands."""
    H = build_hamiltonian(N)
    return np.diag(H.superdiagonal, 1) + np.diag(H.subdiagonal, -1)


@pytest.fixture(autouse=True)
def fresh_system_memo():
    """Empty the last-size memo of biorthogonal_system around every test, so a
    system built under a patched build_metric_Q or gate reaches no other test."""
    lattice._build_system.cache_clear()
    yield
    lattice._build_system.cache_clear()


@pytest.fixture(scope="session")
def system_cache():
    """Memoized biorthogonal systems, shared across the suite."""
    cache = {}

    def get(N):
        if N not in cache:
            cache[N] = biorthogonal_system(N)
        return cache[N]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
