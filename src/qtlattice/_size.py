"""The one module where outside input becomes an array: the size check and one gate per kind.

`exact` runs on the standard library alone, so the size check that it shares with the
numerical modules must too.  numpy's integer scalars register as `numbers.Integral` and
pass; bools are rejected.  The array gates import numpy when called and name the argument,
a ragged nest too: `_as_real` for real input (dtype, finiteness, rank), `_require_finite` for
numbers that may be complex, computed values and CLI ranges, `_as_square` for a candidate matrix.
`_rescaled` is the one exact power-of-two rescale behind every scale-free verdict, one factor
per matrix and one call per input whose scale a verdict reads.  The Sturm kernel (`tridiagonal`)
rescales nothing: its callers hand it bands so scaled.
"""

from __future__ import annotations

import sys
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
    return _require_finite(array.astype(float, copy=False), what)


def _require_finite(value, what: str):
    """value as an array, else a ValueError naming `what`: numbers (complex too), all finite."""
    import numpy as np

    try:
        value = np.asarray(value)
    except ValueError as exc:  # numpy refuses ragged nesting
        raise ValueError(f"{what} must be numbers, not ragged input") from exc
    if value.dtype.kind not in "biufc":
        raise ValueError(f"{what} must be numbers, not {value.dtype} input")
    if not np.isfinite(value).all():
        raise ValueError(f"{what} is not finite (NaN or inf)")
    return value


def _require_square(matrix, what: str) -> None:
    """Raise, naming `what`, unless the array is a nonempty square matrix."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ValueError(f"expected a nonempty square {what}, not one of shape {matrix.shape}")


def _as_square(value, what: str):
    """value as a nonempty, square, finite float or complex matrix, else ValueError naming what."""
    matrix = _require_finite(value, what)
    _require_square(matrix, what)
    return matrix.astype(complex if matrix.dtype.kind == "c" else float, copy=False)


def _rescaled(largest, *arrays) -> tuple:
    """Each matrix of the arrays (real or complex) times its own power of two, given `largest`, its
    max |entry|: one number, or an array over the batch axes, which every array holds last.  A
    matrix is untouched where largest is 0 or in [2^-250, 2^250]: there squares of entries, LDL^T
    pivots, N-term sums of products of two such maxima and 1e-12 of one stay finite and normal.
    Outside it the factor is 2^-e, e the binary exponent of largest clamped to +-1022, so it is
    finite for a subnormal maximum and for an inf one (a complex modulus that overflowed); the
    scaled maximum lies in [2^-52, 6).  Scaling by a power of two is exact where no entry falls to
    a subnormal, so every ratio and sign read from the scaled arrays is the unscaled one."""
    import numpy as np

    outside = (largest > 2.0**250) | ((0 < largest) & (largest < 2.0**-250))
    if not np.count_nonzero(outside):
        return arrays
    exponent = np.clip(np.frexp(np.minimum(largest, sys.float_info.max))[1], -1022, 1022)
    factor = np.where(outside, np.ldexp(1.0, -exponent), 1.0)
    return tuple(array * factor for array in arrays)
