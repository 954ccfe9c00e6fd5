"""numpy helpers of the elementwise kernels: scalar-or-array input, checked
once, and bulk evaluation in cache-sized blocks."""

import math

import numpy as np

from .errors import DomainError

#: Elements per block of a bulk elementwise evaluation (see :func:`blockwise`).
BLOCK = 1 << 14


#: The types taken as one number, by exact type (not bool, nor a 0-d array).
SCALARS = (float, int, np.float64)


def as_float_array(x, name="x", require_finite=False):
    """Coerce to a float ndarray, rejecting NaN (and optionally infinities).

    A number of a ``SCALARS`` type is checked with ``math`` and returned as an
    ``np.float64``: every ufunc then runs the loop a 0-d array would, with the
    same bits, without the array's per-call cost."""
    if type(x) in SCALARS:
        v = float(x)
        if math.isnan(v):
            raise DomainError(f"{name} must not contain NaN")
        if require_finite and math.isinf(v):
            raise DomainError(f"{name} must be finite")
        return np.float64(v)
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise DomainError(f"{name} must not contain NaN")
    if require_finite and not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def match_input(x, result):
    """Return a bare float when the caller passed a scalar."""
    if type(x) in SCALARS or np.ndim(x) == 0:
        return float(result)
    return result


def blockwise(fn, arr):
    """``fn(arr)`` for an elementwise float ``fn``, evaluated ``BLOCK`` elements
    at a time into one new output array of ``arr``'s shape.

    Each element passes through the same ufuncs in the same order, so the
    result is bit-identical to ``fn(arr)``; only the temporaries shrink.  A
    kernel chains 5-15 ufuncs, each writing a temporary the size of its
    input: at 16 Ki doubles (128 KiB) those stay in a core's L2 cache,
    where on 1e6 points each would be a fresh 8 MB array that faults in new
    pages and waits on memory.  Of 4, 16, 64 and 256 Ki, 16 Ki was the
    fastest for the 1e6-point kernels on a Xeon with 2 MiB of L2 per core.
    Inputs of at most ``BLOCK`` elements are passed to ``fn`` whole.
    """
    if arr.size <= BLOCK:
        return fn(arr)
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    for i in range(0, flat.size, BLOCK):
        out[i:i + BLOCK] = fn(flat[i:i + BLOCK])
    return out.reshape(arr.shape)
