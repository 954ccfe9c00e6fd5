"""Plot-ready data bundles: histogram, box plot, fitted densities, risk curves.

Figures are emitted as data grids rather than rendered images so any
plotting tool can consume them.  Density columns come from whichever
candidate models fit the data; models whose support excludes the data, or
whose density leaves the double range on the grid, are skipped with a note
instead of failing the whole bundle.  Everything runs on Python floats,
with the bits of numpy's ``linspace`` and ``histogram`` edges (the
histogram's bins and the box plot's outliers are slices of the sorted
sample, found by bisection): a bundle imports numpy only where its fits do
(see :data:`arctangr.fit.FLOAT_FIT_MAX`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import index, lt, sub

from ._util import FrozenRecord, dump_json
from .dataset import LossDataset, _linear_quantile
from .errors import DataError, DomainError
from .fit import MODELS
from .risk import risk_curve


def _linspace(start, stop, num):
    """``np.linspace(start, stop, num).tolist()`` for ``num >= 2``, bit for bit:
    ``i * step + start`` with ``step = (stop - start) / (num - 1)`` (or, where
    that step rounds to 0, ``i / (num - 1) * (stop - start) + start``), and
    ``stop`` as the last point."""
    div = num - 1
    delta = stop - start
    step = delta / div
    points = [i * step + start if step else i / div * delta + start for i in range(num)]
    points[-1] = stop
    return points


#: Confidence levels of the risk curves, 0.55 to 0.99 by 0.01 (each equal to
#: ``np.linspace(0.55, 0.99, 45).round(12)``), and points of the density grid.
RISK_ALPHAS = tuple(k / 100 for k in range(55, 100))
GRID_POINTS = 401
#: The most histogram bins the Freedman-Diaconis rule may choose; a million
#: edges are already ~25 MB of JSON.
MAX_FD_BINS = 10**6


class PlotBundle(FrozenRecord):
    """Numeric payloads for the standard diagnostic figures; the constructor
    checks the histogram's counts and edges, that the density grid
    increases, and that no density is negative."""

    _fields = ("histogram", "boxplot", "density", "risk", "skipped_models")

    def __init__(self, histogram: dict, boxplot: dict, density: dict, risk: dict,
                 skipped_models: dict | None = None):
        edges, counts = histogram["bin_edges"], histogram["counts"]
        if sum(counts) != histogram["n"]:
            raise DomainError("histogram counts must sum to the sample size")
        if len(edges) != len(counts) + 1:
            raise DomainError("histogram needs one more edge than counts")
        grid = density["x"]
        if not all(map(lt, grid, grid[1:])):
            raise DomainError("density grid must be strictly increasing")
        for name, col in density["curves"].items():
            if any(map((0.0).__gt__, col)):
                raise DomainError(f"density column {name!r} has negative values")
        self.__dict__.update(histogram=histogram, boxplot=boxplot, density=density, risk=risk,
                             skipped_models={} if skipped_models is None else skipped_models)

    def to_json(self) -> str:
        payload = {
            "histogram": self.histogram,
            "boxplot": self.boxplot,
            "density": self.density,
            "risk": self.risk,
            "skipped_models": self.skipped_models,
        }
        return dump_json(payload)

    def to_text(self) -> str:
        five = self.boxplot["five_number"]
        lines = [
            f"plot bundle: n={self.histogram['n']}, "
            f"{len(self.histogram['counts'])} histogram bins",
            "five-number summary: "
            + ", ".join(f"{k}={five[k]:.6g}" for k in ("min", "q1", "median", "q3", "max")),
            f"outliers beyond 1.5*IQR: {len(self.boxplot['outliers'])}",
            f"density curves: {', '.join(sorted(self.density['curves']))} "
            f"on {len(self.density['x'])} grid points",
            f"risk curve: {len(self.risk['alpha'])} confidence levels "
            f"({self.risk['alpha'][0]:g} .. {self.risk['alpha'][-1]:g})",
        ]
        if self.skipped_models:
            for name, reason in sorted(self.skipped_models.items()):
                lines.append(f"skipped {name}: {reason}")
        return "\n".join(lines) + "\n"


def _fd_bins(n, span, iqr) -> int:
    """The bin count of ``np.histogram(x, bins="fd")`` for ``n`` values over a
    range ``span`` with interquartile range ``iqr``: ``ceil(span / width)``
    with ``width = 2 iqr n^(-1/3)``, or 1 bin where the width is 0.  It is
    computed in floats before any edge is made, so a count above
    ``MAX_FD_BINS`` raises :class:`DataError` rather than reaching numpy."""
    width = 2.0 * iqr * n ** (-1.0 / 3.0)
    if not width:
        return 1
    count = span / width
    if not count <= MAX_FD_BINS:
        raise DataError(
            f"the Freedman-Diaconis rule asks for {count:.3g} histogram bins, "
            f"more than the {MAX_FD_BINS} a plot bundle holds (the range is "
            "huge against the IQR); choose a count with --bins"
        )
    return math.ceil(count)


def _bin_count(bins) -> int:
    """An explicit histogram bin count: an integer (one that
    ``operator.index`` takes) from 1 to ``MAX_FD_BINS``, the most the
    Freedman-Diaconis rule may choose; anything else raises
    :class:`DomainError`."""
    try:
        count = index(bins)
    except TypeError:
        raise DomainError(f"--bins must be a positive integer, got {bins!r}") from None
    if count < 1:
        raise DomainError(f"--bins must be a positive integer, got {count}")
    if count > MAX_FD_BINS:
        raise DomainError(f"--bins must be at most {MAX_FD_BINS}, the most histogram bins "
                          f"a plot bundle holds, got {count}")
    return count


def _histogram(xs, bins):
    """The histogram of the sorted sample ``xs`` in ``bins`` bins, as ``(counts,
    edges)`` lists: ``np.histogram``'s ``bins + 1`` edges, bit for bit, by
    :func:`_linspace` from the smallest to the largest value (widened by 0.5
    each way where they are equal), and in each bin the values from its lower
    edge up to its upper one (the last bin holds it), by one bisection per
    interior edge.  These are numpy's counts but in bins a few subnormal steps
    wide, where numpy's index arithmetic can put a value in a bin whose edges
    exclude it.  Edges that do not increase, as numpy's raise, raise
    :class:`DataError`."""
    first, last = xs[0], xs[-1]
    if first == last:
        first, last = first - 0.5, last + 0.5
    edges = _linspace(first, last, bins + 1)
    if not all(map(lt, edges, edges[1:])):
        raise DataError(f"{bins} histogram bins do not fit in the data range "
                        f"{first:.6g} to {last:.6g}: choose fewer with --bins")
    cuts = [0, *(bisect_left(xs, edge) for edge in edges[1:-1]), len(xs)]
    return list(map(sub, cuts[1:], cuts[:-1])), edges


def plot_bundle(data: LossDataset, bins=None) -> PlotBundle:
    """Assemble histogram/boxplot/density/risk data for one dataset.

    ``bins=None`` selects the Freedman-Diaconis rule, with the bin count and
    edges of ``np.histogram(x, bins="fd")``, for at most ``MAX_FD_BINS``
    (10**6) bins: a sample whose range needs more raises :class:`DataError`.
    Pass an integer from 1 to ``MAX_FD_BINS`` to override; any other ``bins``
    raises :class:`DomainError` before anything is built.  Densities of
    every model in :data:`MODELS` are tabulated on ``GRID_POINTS`` points;
    risk curves use the fitted AGR parameters at ``RISK_ALPHAS``.  A sample
    so near the double limits that its fences (1.5 IQR beyond the quartiles)
    or its grid (a quarter of the range beyond the data) would overflow
    raises :class:`DataError`, as does one whose range is a few subnormal
    steps wide, too narrow for the grid's distinct points.
    """
    count = None if bins is None else _bin_count(bins)
    xs = data.sorted_values
    lo, hi = xs[0], xs[-1]
    span = hi - lo
    # every fence, grid point and grid step lies within this of zero
    if not math.isfinite(max(abs(lo), abs(hi)) + 1.5 * span):
        raise DataError(
            f"the sample spans {lo:.6g} to {hi:.6g}: its box-plot fences and "
            "density grid would leave the double range"
        )
    # np.quantile's quartiles, from which np.histogram's "fd" takes its IQR
    q1, med, q3 = (_linear_quantile(xs, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    counts, edges = _histogram(xs, _fd_bins(data.n, span, iqr) if count is None else count)
    histogram = {"n": data.n, "bin_edges": edges, "counts": counts}

    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    boxplot = {
        "five_number": {
            "min": lo,
            "q1": q1,
            "median": med,
            "q3": q3,
            "max": hi,
        },
        "fences": {"low": lo_fence, "high": hi_fence},
        "outliers": [*xs[:bisect_left(xs, lo_fence)], *xs[bisect_right(xs, hi_fence):]],
    }

    span = span or 1.0
    grid = _linspace(lo - 0.25 * span, hi + 0.25 * span, GRID_POINTS)
    if not all(map(lt, grid, grid[1:])):
        raise DataError(
            f"the sample spans {lo:.6g} to {hi:.6g}, too narrow a range for a "
            f"density grid of {GRID_POINTS} distinct points"
        )
    curves = {}
    skipped = {}
    agr_params = None
    for name, model in MODELS.items():
        try:
            result = model.fit(data)
        except DataError as exc:
            skipped[name] = str(exc)
            continue
        if name == "agr":
            agr_params = result.params
        col = model.pdf(result.params, grid)
        if all(map(math.isfinite, col)):
            curves[name] = col
        else:
            skipped[name] = "its density leaves the double range on the grid"
    density_block = {"x": grid, "curves": curves}

    if agr_params is None:
        raise DataError("cannot build risk curves: AGR fit failed")
    report = risk_curve(agr_params, list(RISK_ALPHAS))
    risk_block = {
        "params": {"omega": agr_params.omega, "psi": agr_params.psi},
        "alpha": [row.alpha for row in report.rows],
        "var": [row.var for row in report.rows],
        "tvar": [row.tvar for row in report.rows],
        "tv": [row.tv for row in report.rows],
    }

    return PlotBundle(
        histogram=histogram,
        boxplot=boxplot,
        density=density_block,
        risk=risk_block,
        skipped_models=skipped,
    )
