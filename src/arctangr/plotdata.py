"""Plot-ready data bundles: histogram, box plot, fitted densities, risk curves.

Figures are emitted as data grids rather than rendered images so any
plotting tool can consume them.  Density columns come from whichever
candidate models fit the data; models whose support excludes the data are
skipped with a note instead of failing the whole bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import dump_json
from .dataset import LossDataset, _linear_quantile
from .errors import DataError, DomainError
from .fit import MODELS
from .risk import risk_curve

#: Confidence levels of the risk curves, and points of the density grid.
RISK_ALPHAS = tuple(np.linspace(0.55, 0.99, 45).round(12))
GRID_POINTS = 401
#: The most histogram bins the Freedman-Diaconis rule may choose; a million
#: edges are already ~25 MB of JSON.
MAX_FD_BINS = 10**6


@dataclass(frozen=True)
class PlotBundle:
    """Numeric payloads for the standard diagnostic figures."""

    histogram: dict
    boxplot: dict
    density: dict
    risk: dict
    skipped_models: dict = field(default_factory=dict)

    def __post_init__(self):
        edges = np.asarray(self.histogram["bin_edges"])
        counts = np.asarray(self.histogram["counts"])
        if counts.sum() != self.histogram["n"]:
            raise DomainError("histogram counts must sum to the sample size")
        if edges.size != counts.size + 1:
            raise DomainError("histogram needs one more edge than counts")
        grid = np.asarray(self.density["x"])
        if not np.all(np.diff(grid) > 0):
            raise DomainError("density grid must be strictly increasing")
        for name, col in self.density["curves"].items():
            if np.any(np.asarray(col) < 0):
                raise DomainError(f"density column {name!r} has negative values")

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


def plot_bundle(data: LossDataset, bins=None) -> PlotBundle:
    """Assemble histogram/boxplot/density/risk data for one dataset.

    ``bins=None`` selects the Freedman-Diaconis rule, bit for bit as
    ``np.histogram(x, bins="fd")``, for at most ``MAX_FD_BINS`` (10**6)
    bins: a sample whose range needs more raises :class:`DataError`.  Pass
    an integer to override.  Densities of every model in :data:`MODELS` are
    tabulated on ``GRID_POINTS`` points; risk curves use the fitted AGR
    parameters at ``RISK_ALPHAS``.  A sample so near the double limits that
    its fences (1.5 IQR beyond the quartiles) or its grid (a quarter of the
    range beyond the data) would overflow raises :class:`DataError`.
    """
    x = data.array
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    # every fence, grid point and grid step lies within this of zero
    if not math.isfinite(max(abs(lo), abs(hi)) + 1.5 * span):
        raise DataError(
            f"the sample spans {lo:.6g} to {hi:.6g}: its box-plot fences and "
            "density grid would leave the double range"
        )
    # np.quantile's quartiles, from which np.histogram's "fd" takes its IQR
    q1, med, q3 = (_linear_quantile(data.sorted_array, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    counts, edges = np.histogram(
        x, bins=(_fd_bins(x.size, span, iqr) if bins is None else int(bins)))
    histogram = {
        "n": int(x.size),
        "bin_edges": edges.tolist(),
        "counts": counts.tolist(),
    }

    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = x[(x < lo_fence) | (x > hi_fence)]
    boxplot = {
        "five_number": {
            "min": lo,
            "q1": q1,
            "median": med,
            "q3": q3,
            "max": hi,
        },
        "fences": {"low": lo_fence, "high": hi_fence},
        "outliers": sorted(float(v) for v in outliers),
    }

    span = span or 1.0
    grid = np.linspace(lo - 0.25 * span, hi + 0.25 * span, GRID_POINTS)
    curves = {}
    skipped = {}
    agr_params = None
    for name, model in MODELS.items():
        try:
            result = model.fit(data)
        except DataError as exc:
            skipped[name] = str(exc)
            continue
        curves[name] = np.asarray(model.pdf(result.params, grid)).tolist()
        if name == "agr":
            agr_params = result.params
    density_block = {"x": grid.tolist(), "curves": curves}

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
