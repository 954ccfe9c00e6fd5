"""Internal helpers in Python floats: numpy's pairwise sum, the one unit
scale of every sample sum and fit (:func:`unit_exponent`), the mean and
variance, Bowley/Moors, and the output formats.  Nothing here imports numpy
(see :mod:`arctangr._arrays` for the elementwise kernels' helpers)."""

import csv
import io
import json
import math
from functools import reduce
from operator import add


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


#: Samples whose largest size lies in [2^(-B-1), 2^B) are summed as they are;
#: :func:`unit_exponent` brings any other to that band's nearer edge.  At the
#: top, a deviation between two values of the sample is below 2^(B+1), so
#: ``n < 2^64`` squared deviations sum below 2^(2B+66) = 2^962 < 2^1024.  At
#: the bottom, two distinct doubles near the largest size differ by at least
#: its ulp, 2^(-B-53), whose square 2^(-2B-106) = 2^-1002 is still a normal
#: double (>= 2^-1022).  Both hold up to B = 458; 448 keeps ten binades
#: to spare.
_BAND = 448


def unit_exponent(lo, hi) -> int:
    """The exponent ``e`` of a sample's unit scale, from its smallest and
    largest values: its sums are taken on ``x`` times ``2^-e`` and mapped back
    by ``2^e`` (``ldexp``), exactly, so that no square of a deviation
    overflows or, unless it is 0, leaves the normal doubles.  With ``t`` the
    binary exponent of ``max|x|`` (as ``frexp`` gives it), ``e = t - clamp(t,
    -B, B)``: 0 inside the band, where the sums keep their bits with no copy,
    and otherwise the smallest shift that brings ``max|x|`` to its edge."""
    t = math.frexp(max(abs(lo), abs(hi)))[1]
    return t - min(max(t, -_BAND), _BAND)


def mean_var(x, e):
    """numpy's ``mean`` and ``var(ddof=0)`` of a list of floats times ``2^-e``,
    bit for bit: the pairwise sum over ``n``, then the pairwise sum of the
    squared deviations from that mean over ``n``.  They are left at that
    scale; the mean maps back by ``2^e``, the variance by ``2^2e``."""
    if e:
        unit = math.ldexp(1.0, -e)
        x = [v * unit for v in x]
    n = len(x)
    mean = pairwise_sum(x) / n
    dev = [v - mean for v in x]
    return mean, pairwise_sum([d * d for d in dev]) / n


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
    """``payload`` as indent-2 JSON with a final newline: every JSON output.
    It is strict JSON (RFC 8259): a ``NaN`` or infinite number raises
    ``ValueError``, where ``json`` would write ``NaN`` or ``Infinity``."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def dump_csv(header, rows) -> str:
    """A header and rows as CSV, minimal quoting and ``\\n`` line ends: every CSV output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
