"""Inertia of symmetric tridiagonal matrices by LDL^T pivot counts.

The one O(N) kernel behind the Legendre root certificate (`legendre`) and the
definiteness labels of the tridiagonal metric family (`metrics`).  It sits at
the bottom of the import graph, above `_size`, whose gate `_as_real` checks
each of its three inputs under its own name, and depends on numpy.
"""

from __future__ import annotations

import numpy as np

from ._size import _as_real, _rescaled

_TINY = float(np.finfo(float).tiny)


def sturm_count(diagonal, offdiagonal, shift):
    """Number of eigenvalues below `shift` of a symmetric tridiagonal matrix.

    The LDL^T pivots of T - shift I follow d_k = (a_k - shift) - b_{k-1}^2 /
    d_{k-1}; by Sylvester's law of inertia the number of negative pivots is
    the number of eigenvalues below the shift (Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).  As in LAPACK's dstebz, a zero pivot counts
    as negative and continues as -pivmin, so an eigenvalue at the shift
    itself may count as below it.  O(N) per shift.

    The computed pivots are the exact pivots of a matrix whose entries carry
    relative errors of at most 2.5 eps (Kahan; Demmel, Applied Numerical
    Linear Algebra, lemma 5.4), so each count is exact for eigenvalues moved
    by at most 5 eps max|T|, about 1.1e-15 max|T|.  The model needs the
    squared off-diagonal entries and the pivots finite and normal, so inputs
    whose largest entry (the shift's included) leaves [2^-250, 2^250] are
    first scaled by one exact power of two (`_size._rescaled`), which leaves
    the counts as they are: c T below c shift counts as T below the shift.

    `offdiagonal` has N - 1 entries along axis 0; any further axes, and the
    shape of `shift`, broadcast to a batch of matrices, whose counts come
    back as an integer array of the batch shape.  Without a batch the count
    runs on Python floats, which is faster than numpy for one matrix.
    """
    diagonal = _as_real(diagonal, "the diagonal", 1)
    offdiagonal = _as_real(offdiagonal, "the off-diagonal")
    shift = _as_real(shift, "the shift")
    if len(diagonal) < 1 or offdiagonal.shape[:1] != (len(diagonal) - 1,):
        raise ValueError("need N >= 1 diagonal entries and N - 1 off-diagonal entries")
    extent = max(float(np.abs(x).max(initial=0.0)) for x in (diagonal, offdiagonal, shift))
    diagonal, offdiagonal, shift = _rescaled(extent, diagonal, offdiagonal, shift)
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
