"""Internal helpers in Python floats: the one rule for a count argument
(:func:`is_integer`), the one unit scale of every sample sum and fit
(:func:`unit_exponent`), the bound from which ``z`` is formed in halves
(:data:`WIDE_LOCATION`), the bounds of the Rayleigh log-density's direct
log (:data:`TINY`, :data:`HALF_MAX`), the mean and variance, Bowley/Moors,
the output formats, and the base of the record classes (:class:`Record`).
Nothing here imports numpy (see :mod:`arctangr._arrays` for the elementwise
kernels' helpers), and ``json`` and ``csv`` load only where their format is
written."""

import math
import operator

#: The least ``|omega|`` at which a finite ``x - omega`` can overflow: from
#: here on the standardized ``z`` is formed in halves, by the array kernels
#: (:func:`arctangr.distributions._z`) and the float densities
#: (:func:`arctangr.fit._standardizing`) alike.
WIDE_LOCATION = 2.0 ** 970

#: The smallest normal double, and the cap of ``z/psi`` in the Rayleigh
#: log-density: from ``[TINY, HALF_MAX)`` it takes ``log(z/psi)``, else
#: ``log x - 2 log psi``, in its array kernel
#: (:func:`arctangr.distributions.rayleigh_logpdf`) and its float twin
#: (:func:`arctangr.fit._rayleigh_logpdf`) alike.
TINY = 2.0 ** -1022
HALF_MAX = 2.0 ** 1023


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's (a ``bool`` too, not
    a numpy bool nor a float): one that ``operator.index`` takes.  Every count
    argument is tested by this rule."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


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
    """The mean and population variance of a list of floats times ``2^-e``:
    the correctly rounded sum (``math.fsum``) over ``n``, then the correctly
    rounded sum of the squared deviations from that mean over ``n``.  They are
    left at that scale; the mean maps back by ``2^e``, the variance by ``2^2e``."""
    if e:
        unit = math.ldexp(1.0, -e)
        x = [v * unit for v in x]
    n = len(x)
    mean = math.fsum(x) / n
    dev = [v - mean for v in x]
    return mean, math.fsum([d * d for d in dev]) / n


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
    import json

    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def dump_csv(header, rows) -> str:
    """A header and rows as CSV, minimal quoting and ``\\n`` line ends: every CSV output."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class Record:
    """Base of the package's record classes, with the ``==`` and ``repr`` of a
    dataclass, read from the class's ``_fields`` (its constructor's
    parameters, in order).  Two records are equal where they are of one
    class and their fields compare equal as tuples; against any other class
    ``==`` is ``NotImplemented``.  The ``repr`` is ``Name(field=value, ...)``.
    Each subclass writes its own ``__init__``, which checks its arguments and
    stores them in the instance ``__dict__``."""

    _fields = ()

    def _astuple(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        pairs = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({pairs})"


class FrozenRecord(Record):
    """A :class:`Record` whose attributes are set once, by ``__init__`` in the
    instance ``__dict__``: assigning or deleting one raises
    :class:`AttributeError`.  It hashes as the tuple of its fields, so a
    record whose fields are all hashable is."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._astuple())
