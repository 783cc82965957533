"""The one size check of every public entry point, with no numpy import.

`exact` runs on the standard library alone, so the check that it shares with
the numerical modules must too.  numpy's integer scalars register as
`numbers.Integral` and pass; bools are rejected.
"""

from __future__ import annotations

from numbers import Integral


def _require_size(N, minimum: int = 1) -> int:
    """N as an int; ValueError unless it is an Integral, not a bool, and at least `minimum`."""
    if isinstance(N, bool) or not isinstance(N, Integral):
        raise ValueError(f"a size must be an integer, not {N!r}")
    if N < minimum:
        raise ValueError(f"a size must be at least {minimum}, not {N}")
    return int(N)
