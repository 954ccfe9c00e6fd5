"""Loss-dataset ingestion and descriptive statistics.

Datasets are one numeric column: either a CSV/newline-delimited file or the
embedded unemployment-insurance sample (58 monthly observations of first
unemployment-insurance checks issued to former federal employees, Maryland,
July 2008 - April 2013) available under the source spec
``embedded:insurance``.

A :class:`LossDataset` holds its checked sample, and the sorted copy, as
Python floats; ``describe``, the quantiles, the plot bundle and the fits of
up to :data:`arctangr.fit.FLOAT_FIT_MAX` points run on the sorted copy, with
``np.quantile``'s bits for the quantiles and correctly rounded sums, and
import no numpy.  The sorted ndarray that the fits of larger samples work on
is the one an ndarray input was sorted into, else built on first use.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

from ._util import FrozenRecord, Record, bowley_moors, dump_csv, dump_json, mean_var, unit_exponent
from .errors import DataError

EMBEDDED_PREFIX = "embedded:"
EMBEDDED_INSURANCE = "embedded:insurance"

#: Monthly "first unemployment-insurance checks issued" figures (n = 58).
INSURANCE_VALUES = (
    0.052, 0.033, 0.039, 0.050, 0.029, 0.052, 0.060, 0.032, 0.057, 0.064,
    0.061, 0.064, 0.041, 0.036, 0.050, 0.053, 0.061, 0.068, 0.060, 0.050,
    0.064, 0.057, 0.061, 0.059, 0.069, 0.070, 0.137, 0.170, 0.100, 0.090,
    0.222, 0.109, 0.068, 0.063, 0.056, 0.090, 0.074, 0.095, 0.114, 0.133,
    0.066, 0.075, 0.072, 0.054, 0.057, 0.052, 0.066, 0.069, 0.083, 0.044,
    0.060, 0.080, 0.058, 0.080, 0.080, 0.052, 0.065, 0.073,
)


class LossDataset(Record):
    """An ordered sample of finite real-valued losses with provenance.

    ``values`` is given as any flat sequence of numbers (an ndarray too) and
    kept as a tuple of floats, checked once: nonempty, 1-d and finite (text,
    a ``str`` or ``bytes``, is not a sample).
    ``sorted_values`` is the same floats sorted, and ``sorted_array`` a
    read-only float ndarray of them: an ndarray input is sorted into it here,
    any other by ``np.sort`` on first use.  The library reads only these two."""

    _fields = ("values", "source", "name")

    def __init__(self, values, source: str, name: str):
        is_array = type(values).__module__ == "numpy"  # an ndarray (or a numpy scalar)
        text = isinstance(values, (str, bytes, bytearray))  # not a sample of its characters
        try:
            # an ndarray's tolist() gives its numbers in one call, nested if not 1-d
            floats = () if text else tuple(map(float, values.tolist() if is_array else values))
        except (TypeError, ValueError, OverflowError):
            floats = ()
        if not floats:
            raise DataError(f"dataset {name!r} must be a nonempty 1-d sample")
        if not all(map(math.isfinite, floats)):
            raise DataError(f"dataset {name!r} contains NaN or infinite values")
        self.values, self.source, self.name = floats, source, name
        if is_array:  # sorted here, so ``sorted_array`` is not rebuilt from the floats
            arr = values.astype(float)
            arr.sort()
            arr.flags.writeable = False
            self.__dict__["sorted_array"] = arr

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def sorted_values(self) -> tuple:
        return tuple(sorted(self.values))

    @cached_property
    def sorted_array(self):
        import numpy as np

        out = np.sort(self.values)
        out.flags.writeable = False
        return out


def ingest(source) -> LossDataset:
    """Load a dataset from a file path or an ``embedded:`` spec.

    Files may carry one optional header line; every other non-blank line
    must parse as a single finite number (one CSV field or a bare value).
    Parse failures report the 1-based line number.
    """
    spec = str(source)
    if spec.startswith(EMBEDDED_PREFIX):
        if spec != EMBEDDED_INSURANCE:
            raise DataError(
                f"unknown embedded dataset {spec!r}; available: {EMBEDDED_INSURANCE}"
            )
        return LossDataset(values=INSURANCE_VALUES, source=spec, name="insurance")

    import csv

    if not os.path.isfile(spec):
        raise DataError(f"no such data file: {spec}")
    try:
        with open(spec, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{spec} is not UTF-8 text: {exc}") from exc

    values: list[float] = []
    saw_row = False
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 1:
            raise DataError(
                f"{spec} line {lineno}: expected a single column, got {len(row)} fields"
            )
        token = row[0].strip()
        try:
            value = float(token)
        except ValueError:
            if not saw_row:
                saw_row = True  # optional header
                continue
            raise DataError(f"{spec} line {lineno}: cannot parse {token!r} as a number")
        if not math.isfinite(value):
            raise DataError(f"{spec} line {lineno}: non-finite value {token!r}")
        saw_row = True
        values.append(value)

    if not values:
        raise DataError(f"{spec} contains no numeric values")
    return LossDataset(values=values, source=spec, name=_stem(spec))


def _stem(path: str) -> str:
    """The file name of ``path`` without its last suffix, as ``pathlib``'s
    ``stem``: a leading dot or a final one is no suffix's."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


class SummaryStats(FrozenRecord):
    """Descriptive statistics of a loss sample.

    Skewness and kurtosis are the quantile-based Bowley/Moors measures so
    they stay comparable to the model's shape measures.
    """

    _fields = ("n", "mean", "median", "sd", "min", "max", "q1", "q3",
               "bowley_skewness", "moors_kurtosis")

    def __init__(self, n: int, mean: float, median: float, sd: float, min: float, max: float,
                 q1: float, q3: float, bowley_skewness: float, moors_kurtosis: float):
        self.__dict__.update(n=n, mean=mean, median=median, sd=sd, min=min, max=max, q1=q1,
                             q3=q3, bowley_skewness=bowley_skewness,
                             moors_kurtosis=moors_kurtosis)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))

    def _cells(self):
        return {k: f"{v:.6g}" if isinstance(v, float) else str(v)
                for k, v in self.as_dict().items()}

    def to_json(self) -> str:
        return dump_json(self.as_dict())

    def to_csv(self) -> str:
        cells = self._cells()
        return dump_csv(cells, [cells.values()])

    def to_text(self) -> str:
        return "".join(f"{k:>16}: {v}\n" for k, v in self._cells().items())


def _linear_quantile(sorted_values, q: float) -> float:
    """``np.quantile(x, q)`` (the default linear interpolation at rank
    ``(n-1)*q``) for one level ``q`` in ``[0, 1]``, bit for bit, from ``x``
    already sorted (a tuple of floats or an ndarray): numpy's index arithmetic
    and lerp in Python floats.  Unlike ``np.quantile`` it never imports
    ``numpy.ma``, and it costs a few float operations, not numpy's per-call
    overhead.

    The one difference: where ``x`` holds both ``0.0`` and ``-0.0``, the two
    compare equal, ``np.quantile``'s partial sort orders them arbitrarily,
    and a zero result may carry the other sign.

    Where the gap ``b - a`` between two neighbours leaves the double range
    (neighbours of opposite signs near +-1.8e308), the interpolation runs on
    ``a/2`` and ``b/2`` and is doubled, elsewhere at scale 1: every scaling is
    exact, so the result is the one numpy's steps give with an unbounded
    exponent, and the same bits wherever those do not overflow.
    """
    last = len(sorted_values) - 1
    h = last * float(q)
    # at the top both neighbours are the last value, at numpy's index -1
    if h >= last:
        lo, a, b = -1.0, float(sorted_values[-1]), float(sorted_values[-1])
    else:
        lo = math.floor(h)
        a, b = float(sorted_values[lo]), float(sorted_values[lo + 1])
    gamma = h - lo
    scale = 0.5 if b - a == math.inf else 1.0
    a, b = a * scale, b * scale
    diff = b - a
    return (b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma) / scale


def describe(data: LossDataset) -> SummaryStats:
    """Summary statistics; SD is the population standard deviation.  The mean
    and SD are :func:`mean_var`'s (correctly rounded sums) at the sample's
    unit scale (see :func:`unit_exponent`), mapped back: the Gaussian fit's
    mean and SD up to ``FLOAT_FIT_MAX`` points, bit for bit.  The quartiles
    and the octiles under Bowley's and Moors' measures are ``np.quantile``'s,
    on the sample itself; everything runs on the sample's sorted floats."""
    xs = data.sorted_values
    e = unit_exponent(xs[0], xs[-1])
    mean, var = mean_var(xs, e)
    octiles = [_linear_quantile(xs, k / 8) for k in range(1, 8)]
    bowley, moors = bowley_moors(octiles)
    return SummaryStats(
        n=data.n,
        mean=math.ldexp(mean, e),
        median=octiles[3],
        sd=math.ldexp(math.sqrt(var), e),
        min=xs[0],
        max=xs[-1],
        q1=octiles[1],
        q3=octiles[5],
        bowley_skewness=bowley,
        moors_kurtosis=moors,
    )
