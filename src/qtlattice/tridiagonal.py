"""Inertia of symmetric tridiagonal matrices by LDL^T pivot counts.

The one O(N) kernel behind the Legendre root certificate (`legendre`), the
definiteness label of a banded metric (`metrics`) and a scan's labels and
singular skip, one call per scan (`horizons`).  It sits at
the bottom of the import graph, above `_size`, whose gate `_as_real` checks
each of its three inputs under its own name, and depends on numpy.
"""

from __future__ import annotations

import numpy as np

from ._size import _as_real, _rescaled


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
    squared off-diagonal entries and the pivots finite and normal, so each
    matrix whose largest entry (its shift's included) leaves [2^-250, 2^250]
    is first scaled by its own power of two (`_size._rescaled`), which leaves
    the counts as they are: c T below c shift counts as T below the shift.

    `diagonal` and `offdiagonal` have N and N - 1 entries along axis 0; any
    further axes, and the shape of `shift`, broadcast to a batch of matrices,
    whose counts come back as an integer array of the batch shape.  One matrix at up to 32
    shifts runs a loop on Python floats per shift, any other input one numpy loop for the batch:
    with one BLAS thread they cross at 32 to 48 shifts for N from 64 to 1024.
    """
    diagonal = _as_real(diagonal, "the diagonal")
    offdiagonal = _as_real(offdiagonal, "the off-diagonal")
    shift = _as_real(shift, "the shift")
    if not diagonal.ndim or len(diagonal) < 1 or offdiagonal.shape[:1] != (len(diagonal) - 1,):
        raise ValueError("need N >= 1 diagonal entries and N - 1 off-diagonal entries")
    extent = np.maximum(np.abs(diagonal).max(axis=0), np.abs(offdiagonal).max(axis=0, initial=0.0))
    extent = np.maximum(extent, np.abs(shift))  # each matrix's largest entry, of the batch shape
    # the batch axes last, after axis 0, so that each matrix's factor scales its own entries
    bands = (x.reshape(len(x), *(1,) * (extent.ndim + 1 - x.ndim), *x.shape[1:])
             for x in (diagonal, offdiagonal))
    rows, couplings, shift = _rescaled(extent, *bands, shift)
    squared = couplings**2
    zero_pivot = -np.finfo(float).tiny * squared.max(axis=0, initial=1.0)  # b^2 / it stays finite
    if diagonal.ndim == offdiagonal.ndim == 1 and shift.size <= 32:  # one matrix, a few shifts
        lists = ([x.ravel().tolist()] * shift.size if x.size == len(x)  # one list for all shifts
                 else (column.tolist() for column in x.reshape(len(x), shift.size).T)
                 for x in (rows - shift, squared))
        zero_pivots = zero_pivot.ravel().tolist() * (shift.size // zero_pivot.size)
        counts = list(map(_float_count, *lists, zero_pivots))  # one shift's lists at a time
        return np.array(counts, dtype=int).reshape(shift.shape) if shift.ndim else counts[0]
    pivot, count = np.ones(extent.shape), np.zeros(extent.shape, dtype=int)
    rows, squared = (x.ravel().tolist() if x.size == len(x) else x for x in (rows, squared))
    # A row of one number for the whole batch runs as a Python float, faster.  After a pivot
    # tinier than |zero_pivot| the next one may overflow to an infinity of the right sign, which
    # the next step turns back into a_k.  a_k - shift is formed row by row: no N rows of batch.
    with np.errstate(over="ignore"):
        for a, b2 in zip(rows, [0.0, *squared]):
            pivot = (a - shift) - b2 / np.where(pivot == 0, zero_pivot, pivot)
            count += pivot <= 0
    return count


def _float_count(shifted, squared, zero_pivot) -> int:
    """The negative pivots of one matrix on Python floats, from lists of a_k - shift and b_k^2."""
    pivot, count = 1.0, 0
    for a, b2 in zip(shifted, [0.0, *squared]):
        pivot = a - b2 / (pivot or zero_pivot)
        if pivot <= 0:
            count += 1
    return count
