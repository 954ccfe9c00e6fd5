"""Internal helpers: scalar-or-array numeric functions and the output formats."""

import csv
import io
import json
import math

import numpy as np

from .errors import DataError, DomainError

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


def blockwise(fn, arr, out=None):
    """``fn(arr)`` for an elementwise float ``fn``, evaluated ``BLOCK`` elements
    at a time into one output array of ``arr``'s shape (``out``, a new array
    by default).

    Each element passes through the same ufuncs in the same order, so the
    result is bit-identical to ``fn(arr)``; only the temporaries shrink.  A
    kernel chains 5-15 ufuncs, each writing a temporary the size of its
    input: at 16 Ki doubles (128 KiB) those stay in a core's L2 cache,
    where on 1e6 points each would be a fresh 8 MB array that faults in new
    pages and waits on memory.  Of 4, 16, 64 and 256 Ki, 16 Ki was the
    fastest for the 1e6-point kernels on a Xeon with 2 MiB of L2 per core.
    Inputs of at most ``BLOCK`` elements are passed to ``fn`` whole.

    ``out`` may be a contiguous float ``arr`` itself, for an ``fn`` that
    writes its result over its block and returns it: numpy skips the copy of
    a view onto itself, so the pass runs in place.
    """
    if arr.size <= BLOCK:
        return fn(arr)
    flat = arr.reshape(-1)
    out = np.empty(flat.size) if out is None else out.reshape(-1)
    for i in range(0, flat.size, BLOCK):
        out[i:i + BLOCK] = fn(flat[i:i + BLOCK])
    return out.reshape(arr.shape)


def at_unit_scale(x, stats, degrees=None):
    """``stats(x)``, a tuple of statistics each scaling like ``x`` (or like
    ``x**k``, ``k`` its entry in ``degrees``), computed on ``x`` over the power
    of two ``2^e`` just above ``max|x|`` and then times ``2^e`` (``2^{ke}``);
    both steps are exact, so only ``stats`` rounds.  For samples whose squares
    overflow though the statistics do not."""
    e = math.frexp(float(np.max(np.abs(x))))[1]
    values = stats(np.ldexp(x, -e))
    try:
        return tuple(math.ldexp(float(v), k * e)
                     for v, k in zip(values, degrees or [1] * len(values)))
    except OverflowError:
        raise DataError("a statistic of the sample is not a finite double") from None


def dump_json(payload) -> str:
    """``payload`` as indent-2 JSON with a final newline: every JSON output."""
    return json.dumps(payload, indent=2) + "\n"


def dump_csv(header, rows) -> str:
    """A header and rows as CSV, minimal quoting and ``\\n`` line ends: every CSV output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
