"""Internal helpers in Python floats: numpy's pairwise sum, the sample
statistics taken at unit scale where they would overflow, Bowley/Moors, and
the output formats.  Nothing here imports numpy (see :mod:`arctangr._arrays`
for the elementwise kernels' helpers)."""

import csv
import io
import json
import math
from functools import reduce
from operator import add

from .errors import DataError


def _pairwise(x, i, n):
    """numpy's pairwise sum of ``x[i:i + n]``: fewer than 8 terms in order from
    0.0; up to 128 on eight interleaved accumulators, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the last
    ``n % 8`` terms in order; more, as two halves split at a multiple of 8."""
    if n < 8:
        return reduce(add, x[i:i + n], 0.0)
    if n <= 128:
        end = i + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = [reduce(add, x[j:end:8]) for j in range(i, i + 8)]
        return reduce(add, x[end:i + n], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise(x, i, half) + _pairwise(x, i + half, n - half)


def pairwise_sum(x) -> float:
    """The sum of a list (or tuple) of floats, in the order, and so with the
    bits, of numpy's ``sum`` of the same values as a contiguous float array
    (or of one row of a C-ordered 2-d array summed along its rows)."""
    return _pairwise(x, 0, len(x))


def at_unit_scale(x, stats, degrees=None):
    """``stats(x)`` as a tuple of floats, each statistic scaling like ``x`` (or
    like ``x**k``, ``k`` its entry in ``degrees``).  ``x`` is a list (or tuple)
    of floats, or an ndarray whose ``stats`` run with numpy's overflow and
    invalid-value warnings off.  It is taken on ``x`` itself.  Only where a
    statistic is not finite (the squares overflow, or a sum meets both
    infinities, though the statistics need not) is it taken again, on ``x``
    times ``2^-e``, ``2^e`` the power of two just above ``max|x|``, and then
    times ``2^e`` (``2^{ke}``).  Both scalings are exact (or round once into
    the subnormals, as ``ldexp`` does), so only ``stats`` rounds, and the
    statistics keep their bits wherever nothing overflows."""
    values = tuple(map(float, stats(x)))
    if all(map(math.isfinite, values)):
        return values
    e = math.frexp(max(map(abs, x)))[1]
    unit = math.ldexp(1.0, -e)
    values = stats([v * unit for v in x] if isinstance(x, (list, tuple)) else x * unit)
    try:
        return tuple(math.ldexp(float(v), k * e)
                     for v, k in zip(values, degrees or [1] * len(values)))
    except OverflowError:
        raise DataError("a statistic of the sample is not a finite double") from None


def mean_var(x):
    """numpy's ``mean`` and ``var(ddof=0)`` of a list of floats, bit for bit:
    the pairwise sum over ``n``, then the pairwise sum of the squared
    deviations from that mean over ``n``."""
    n = len(x)
    mean = pairwise_sum(x) / n
    dev = [v - mean for v in x]
    return mean, pairwise_sum([d * d for d in dev]) / n


def mean_sd(x):
    """The mean and the population SD of a list of floats, numpy's ``mean``
    and ``std(ddof=0)`` bit for bit, by :func:`at_unit_scale`."""
    def stats(y):
        mean, var = mean_var(y)
        return mean, math.sqrt(var)

    return at_unit_scale(x, stats)


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
