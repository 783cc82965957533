"""Inertia of symmetric tridiagonal matrices by LDL^T pivot counts.

The one O(N) kernel behind the Legendre root certificate (`legendre`) and the
definiteness labels of the tridiagonal metric family (`metrics`).  It sits at
the bottom of the import graph and depends on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

_TINY = float(np.finfo(float).tiny)
_SCALE_ABOVE = 2.0**500


def sturm_count(diagonal, offdiagonal, shift):
    """Number of eigenvalues below `shift` of a symmetric tridiagonal matrix.

    The LDL^T pivots of T - shift I follow d_k = (a_k - shift) - b_{k-1}^2 /
    d_{k-1}; by Sylvester's law of inertia the number of negative pivots is
    the number of eigenvalues below the shift (Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).  As in LAPACK's dstebz, a zero pivot counts
    as negative and continues as -pivmin, so an eigenvalue at the shift
    itself may count as below it.  Inputs beyond 2^500 are first scaled by a
    power of two, which is exact and keeps the squared off-diagonal entries
    finite.  O(N) per shift.

    The computed pivots are the exact pivots of a matrix whose entries carry
    relative errors of at most 2.5 eps (Kahan; Demmel, Applied Numerical
    Linear Algebra, lemma 5.4), so each count is exact for eigenvalues moved
    by at most 5 eps max|T|, about 1.1e-15 max|T|.

    `offdiagonal` has N - 1 entries along axis 0; any further axes, and the
    shape of `shift`, broadcast to a batch of matrices, whose counts come
    back as an integer array of the batch shape.  Without a batch the count
    runs on Python floats, which is faster than numpy for one matrix.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    offdiagonal = np.asarray(offdiagonal, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if diagonal.ndim != 1 or len(diagonal) < 1 or offdiagonal.shape[:1] != (len(diagonal) - 1,):
        raise ValueError("need N >= 1 diagonal entries and N - 1 off-diagonal entries")
    extents = [float(np.abs(x).max(initial=0.0)) for x in (diagonal, offdiagonal, shift)]
    if not all(map(math.isfinite, extents)):
        raise ValueError("input has non-finite (NaN or inf) entries")
    if max(extents) > _SCALE_ABOVE:
        scale = math.ldexp(1.0, -math.frexp(max(extents))[1])
        diagonal, offdiagonal, shift = diagonal * scale, offdiagonal * scale, shift * scale
    squared = offdiagonal**2
    zero_pivot = -_TINY * float(squared.max(initial=1.0))  # b^2 / zero_pivot stays finite
    if offdiagonal.ndim == 1 and shift.ndim == 0:
        pivot, count = 1.0, 0
        for a, b2 in zip((diagonal - shift).tolist(), [0.0] + squared.tolist()):
            pivot = a - b2 / (pivot or zero_pivot)
            if pivot <= 0:
                count += 1
        return count
    batch = np.broadcast_shapes(offdiagonal.shape[1:], shift.shape)
    pivot, count = np.ones(batch), np.zeros(batch, dtype=int)
    # After a pivot tinier than |zero_pivot| the next one may overflow to an
    # infinity of the right sign, which the next step turns back into a_k.
    # a_k - shift is formed row by row, so the batch never holds N rows.
    with np.errstate(over="ignore"):
        for a, b2 in zip(diagonal.tolist(), [0.0, *squared]):
            pivot = (a - shift) - b2 / np.where(pivot == 0, zero_pivot, pivot)
            count += pivot <= 0
    return count
