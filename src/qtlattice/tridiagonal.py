"""Inertia of symmetric tridiagonal matrices by LDL^T pivot counts.

The one O(N) kernel behind the Legendre root certificate (`legendre`), the
definiteness label of a banded metric (`metrics`) and a scan's labels and
singular skip, one call per scan (`horizons`).  It takes the float arrays
that those callers built and depends on numpy alone: it checks nothing and
rescales nothing.  Its error model needs each matrix's largest entry, its
shifts' included, in [2^-250, 2^250] (or zero), and the callers see to it:
the label and the scan scale each matrix by its own power of two
(`_size._rescaled`), and J and the certificate's shifts lie there as built.
"""

from __future__ import annotations

import numpy as np


def sturm_count(diagonal, offdiagonal, shifts):
    """Number of eigenvalues below each shift of a symmetric tridiagonal matrix.

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
    squared off-diagonal entries and the pivots finite and normal: the
    caller's precondition is that each matrix's largest entry, its shifts'
    included, is 0 or lies in [2^-250, 2^250].  The caller scales a matrix
    outside by its own power of two (`_size._rescaled`), which leaves the
    counts as they are: c T below c shift counts as T below the shift.

    Float arrays: `diagonal` of shape (N,) or (N, G), `offdiagonal` (N - 1,)
    or (N - 1, G), `shifts` (S,) or (S, G), for one matrix or a batch of G
    (a batch axis of length 1 broadcasts); the counts come back as an int
    array of the shape of `shifts`.  One matrix at up to 32 shifts of shape
    (S,) runs a loop on Python floats per shift (about 0.11 us per row and
    shift), any other input one numpy loop for the batch (about 5.7 us per
    row): with one BLAS thread they cross at 44 to 58 shifts for N from 16
    to 1024, above the rule's 32.
    """
    squared = offdiagonal**2
    # b^2 / it stays finite; an array, not a numpy scalar, is the faster operand of np.where
    zero_pivot = -np.finfo(float).tiny * squared.max(axis=0, initial=1.0, keepdims=True)
    if diagonal.ndim == offdiagonal.ndim == shifts.ndim == 1 and len(shifts) <= 32:  # a few shifts
        rows, squared = (diagonal - shifts[:, None]).tolist(), squared.tolist()
        return np.array([_float_count(row, squared, zero_pivot.item()) for row in rows], dtype=int)
    pivot, count = np.ones(shifts.shape), np.zeros(shifts.shape, dtype=int)
    rows, squared = (x.ravel().tolist() if x.size == len(x) else x for x in (diagonal, squared))
    # A row of one number for the whole batch runs as a Python float, faster.  After a pivot
    # tinier than |zero_pivot| the next one may overflow to an infinity of the right sign, which
    # the next step turns back into a_k.  a_k - shift is formed row by row: no N rows of batch.
    with np.errstate(over="ignore"):
        for a, b2 in zip(rows, [0.0, *squared]):
            pivot = (a - shifts) - b2 / np.where(pivot == 0, zero_pivot, pivot)
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
