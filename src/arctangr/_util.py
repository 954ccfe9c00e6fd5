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
    """``stats(x)`` as a tuple of floats, each statistic scaling like ``x`` (or
    like ``x**k``, ``k`` its entry in ``degrees``).  It is taken on ``x`` itself,
    with numpy's overflow and invalid-value warnings off.  Only where a
    statistic is not finite (the squares overflow, or a sum meets both
    infinities, though the statistics need not) is it taken again, on ``x``
    over the power of two ``2^e`` just above ``max|x|``, and then times ``2^e``
    (``2^{ke}``).  Both steps are exact, so only ``stats`` rounds, and the
    statistics keep their bits wherever nothing overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = tuple(map(float, stats(x)))
    if all(map(math.isfinite, values)):
        return values
    e = math.frexp(float(np.max(np.abs(x))))[1]
    values = stats(np.ldexp(x, -e))
    try:
        return tuple(math.ldexp(float(v), k * e)
                     for v, k in zip(values, degrees or [1] * len(values)))
    except OverflowError:
        raise DataError("a statistic of the sample is not a finite double") from None


def mean_sd(x):
    """The mean and the population SD of a sample, by :func:`at_unit_scale`."""
    return at_unit_scale(x, lambda y: (y.mean(), y.std(ddof=0)))


def bowley_moors(octiles):
    """Bowley's skewness ``(q1 + q3 - 2 med) / IQR`` and Moors' kurtosis
    ``(e7 - e5 + e3 - e1) / IQR`` from the seven octiles ``e1, ..., e7``
    (``q1 = e2``, ``med = e4``, ``q3 = e6``), in Python floats; both are 0 for
    a zero IQR.  Where a sum leaves the double range the sums are taken on the
    octiles over 4, where every step is exact."""
    def sums(e1, q1, e3, med, e5, q3, e7):
        return q3 - q1, q1 + q3 - 2.0 * med, e7 - e5 + e3 - e1

    iqr, skew, kurt = sums(*octiles)
    if not all(map(math.isfinite, (iqr, skew, kurt))):
        iqr, skew, kurt = sums(*(0.25 * e for e in octiles))
    return (skew / iqr, kurt / iqr) if iqr > 0 else (0.0, 0.0)


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
