"""The one size check and the one real-input gate of every public entry point.

`exact` runs on the standard library alone, so the size check that it shares
with the numerical modules must too.  numpy's integer scalars register as
`numbers.Integral` and pass; bools are rejected.  The array checks import
numpy when called: `_as_real` for real input (dtype, finiteness, rank), and
`_require_finite` for input that may be complex, computed values and CLI ranges.
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


def _as_real(value, what: str, ndim: int | None = None):
    """value as a finite float array, of rank `ndim` if given; else a ValueError naming `what`."""
    import numpy as np

    try:
        array = np.asarray(value)
    except ValueError as exc:  # numpy refuses ragged nesting
        raise ValueError(f"{what} must be real numbers, not ragged input") from exc
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, not {array.dtype} input")
    if ndim is not None and array.ndim != ndim:
        rank = ("one number, not an array", "one-dimensional, not one", "two-dimensional, not one")
        raise ValueError(f"{what} must be {rank[ndim]} of shape {array.shape}")
    array = array.astype(float, copy=False)
    _require_finite(array, what)
    return array


def _require_finite(value, what: str) -> None:
    """Raise, naming `what`, unless value holds numbers (complex ones too) that are all finite."""
    import numpy as np

    value = np.asarray(value)
    if value.dtype.kind not in "biufc":
        raise ValueError(f"{what} must be numbers, not {value.dtype} input")
    if not np.isfinite(value).all():
        raise ValueError(f"{what} is not finite (NaN or inf)")
