"""The fits and the plot bundle on Python floats: up to ``fit.FLOAT_FIT_MAX``
points they run without numpy, above it on the numpy path.  The two paths
give the same fits, to a few ulps, on the same samples, the per-point
densities are the array kernels' to the last bits of ``exp``/``log``, and
the plot bundle's levels, grid and histogram edges are numpy's ``round``,
``linspace`` and ``histogram``, bit for bit; its histogram counts each bin
by those edges, as numpy does but in bins of subnormal width."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arctangr.fit as fit_module
from arctangr import (
    ArctanGRParams,
    DataError,
    GaussianParams,
    LossDataset,
    RayleighParams,
    agr_loglik,
    compare_models,
    describe,
    distributions,
    plot_bundle,
)
from arctangr._util import dump_json, unit_exponent
from arctangr.dataset import INSURANCE_VALUES
from arctangr.plotdata import GRID_POINTS, RISK_ALPHAS, _histogram, _linspace
from sum_oracle import exact_mean_var
from test_fit import _family_sample

N = fit_module.FLOAT_FIT_MAX
KINDS = ["normal", "two_normals", "cauchy", "lognormal", "cubed_exponential", "rounded", "pareto"]


def fits(data):
    """Every model's fit of ``data``, or its error message."""
    out = {}
    for name, model in fit_module.MODELS.items():
        try:
            out[name] = model.fit(data)
        except DataError as exc:
            out[name] = str(exc)
    return out


def count_by_edges(x, edges):
    """Each value of ``x`` counted in the bin ``[edges[i], edges[i + 1])`` that
    holds it (the last bin holds its upper edge too), one value at a time."""
    counts = [0] * (len(edges) - 1)
    for v in x:
        counts[max(i for i, edge in enumerate(edges[:-1]) if edge <= v)] += 1
    return counts


def both_paths(fn, data):
    """``fn(data)`` on the float path and on the numpy path."""
    with mock.patch.object(fit_module, "FLOAT_FIT_MAX", 10**9):
        floats = fn(data)
    with mock.patch.object(fit_module, "FLOAT_FIT_MAX", 0):
        return floats, fn(data)


class TestPathsAgree:
    """The float and the numpy path on the same samples, with n on both sides
    of ``FLOAT_FIT_MAX``: log-likelihoods within 1e-12 relative (measured: 3e-16);
    the closed-form locations within ``8 eps mean|x|`` (measured: 0.89) and
    scales within 4 ulps (measured: 2), as the float path's sums are correctly
    rounded and numpy's pairwise; and the AGR parameters within 1e-12 psi
    (measured: 2.1e-15 psi; the slope tolerance alone leaves omega ~16 eps psi
    of play inside a gap).  The float path's Gaussian mean is the exact sum of
    the sample, rounded once, over n."""

    @pytest.mark.parametrize("n", [40, 300, N, N + 3, 2000])
    @pytest.mark.parametrize("kind", KINDS)
    def test_family(self, kind, n):
        for seed in range(3):
            data = LossDataset(values=_family_sample(kind, n, seed), source="array", name="s")
            floats, arrays = both_paths(fits, data)
            x = data.values
            e = unit_exponent(min(x), max(x))
            assert floats["gaussian"].params.omega == math.ldexp(exact_mean_var(x, e)[0], e)
            location_tol = 8.0 * math.ulp(1.0) * math.fsum(map(abs, x)) / n
            for name, a in floats.items():
                b = arrays[name]
                if isinstance(b, str):  # Rayleigh, on a sample that is not positive
                    assert a == b
                    continue
                assert a.loglik == pytest.approx(b.loglik, rel=1e-12, abs=0.0), name
                if name != "agr":
                    *location, scale = vars(a.params).values()
                    *want_location, want_scale = vars(b.params).values()
                    for got, want in zip(location, want_location):
                        assert abs(got - want) <= location_tol, name
                    assert abs(scale - want_scale) <= 4 * math.ulp(want_scale), name
                    continue
                assert a.converged and b.converged
                psi = b.params.psi
                assert abs(a.params.omega - b.params.omega) <= 1e-12 * psi
                assert abs(a.params.psi - psi) <= 1e-12 * psi

    def test_insurance(self, insurance):
        floats, arrays = both_paths(compare_models, insurance)
        assert floats.to_text() == arrays.to_text()

    def test_fit_path_follows_the_size(self, monkeypatch):
        # the numpy search serves above FLOAT_FIT_MAX points only
        searches = []
        real = fit_module._path

        def spy(data):
            path, xs = real(data)
            searches.append((data.n, path is fit_module._FLOATS, type(xs).__name__))
            return path, xs

        monkeypatch.setattr(fit_module, "_path", spy)
        for n in (N, N + 1):
            fit_module.fit_agr(_family_sample("normal", n, 1))
        assert searches == [(N, True, "tuple"), (N + 1, False, "ndarray")]


@pytest.mark.parametrize("n", [1000, 1500, 5000])
def test_row_order_moves_no_bit(n):
    # every fit, the comparison, describe and agr_loglik read the sorted
    # sample only, so a shuffle of the rows gives the same bytes on both
    # paths.  The numpy path's pairwise sums once ran in row order, and moved
    # the fits above FLOAT_FIT_MAX by an ulp or two
    x = _family_sample("lognormal", n, n)
    params = ArctanGRParams(1.0, 0.5)

    def outputs(values):
        data = LossDataset(values=values, source="array", name="s")
        return ([model.fit(data).to_json() for model in fit_module.MODELS.values()],
                compare_models(data).to_json(), describe(data).to_json(),
                agr_loglik(params, data).hex())

    want = outputs(x)
    rng = np.random.default_rng(0)
    for k in range(3):  # an ndarray, and a list as ``ingest`` gives
        shuffled = rng.permutation(x)
        assert outputs(shuffled.tolist() if k else shuffled) == want


GRIDS = [np.linspace(-40.0, 40.0, 2001), np.array([-1e300, -1.0, -0.0, 0.0, 1e-310, 3.0, 1e300])]


class TestDensities:
    """Each model's float ``pdf``/``logpdf`` against its array kernel: the same
    steps, so equal but for the last bits of ``math``'s ``exp``/``log``/``log1p``
    (within 4 ulps here); the Gaussian and Laplace log-densities, which take no
    transcendental per point, bit for bit."""

    CASES = {
        "agr": (ArctanGRParams(0.3, 2.0), distributions.agr_pdf, distributions.agr_logpdf),
        "gaussian": (GaussianParams(0.3, 2.0), distributions.gaussian_pdf,
                     distributions.gaussian_logpdf),
        "rayleigh": (RayleighParams(2.0), distributions.rayleigh_pdf,
                     distributions.rayleigh_logpdf),
        "laplace": (ArctanGRParams(0.3, 2.0), distributions.mixture_kernel_pdf,
                    distributions.mixture_kernel_logpdf),
    }

    @pytest.mark.parametrize("grid", GRIDS, ids=["dense", "extreme"])
    @pytest.mark.parametrize("name", CASES)
    def test_float_kernels_are_the_array_kernels(self, name, grid):
        params, pdf, logpdf = self.CASES[name]
        model = fit_module.MODELS[name]
        with np.errstate(all="ignore"):
            for got, want in ((model.pdf(params, grid.tolist()), pdf(params, grid)),
                              (model.logpdf(params, grid.tolist()), logpdf(params, grid))):
                want = want.tolist()
                if name in ("gaussian", "laplace") and got[0] < 0:  # the log-densities
                    assert got == want
                for g, w in zip(got, want):
                    assert g == w or abs(g - w) <= 4 * math.ulp(w), (g, w)

    @pytest.mark.parametrize("omega", [-1.7e308, 1.7e308, 2.0**970, -(2.0**970)])
    @pytest.mark.parametrize("name", ["agr", "gaussian", "laplace"])
    def test_wide_location_is_the_array_kernels(self, name, omega):
        # from |omega| = 2^970 on x - omega can overflow where z is finite; the
        # float densities form z as the array kernels do, with no warning
        params = (GaussianParams if name == "gaussian" else ArctanGRParams)(omega, 1e300)
        _, pdf, logpdf = self.CASES[name]
        grid = [1.7e308, -1.7e308, omega, omega + 1e300, omega - 3e300, 0.0, 5e-324]
        model = fit_module.MODELS[name]
        for got, want in ((model.pdf(params, grid), pdf(params, np.array(grid))),
                          (model.logpdf(params, grid), logpdf(params, np.array(grid)))):
            want = want.tolist()
            assert all(map(math.isfinite, want[-5:]))
            if name in ("gaussian", "laplace") and got[0] < 0:  # the log-densities
                assert got == want
            for g, w in zip(got, want):
                assert g == w or abs(g - w) <= 4 * math.ulp(w), (g, w)
        if abs(omega) == 1.7e308:  # z = 3.4e8 from the other end of the doubles
            assert -math.inf < model.logpdf(params, [-omega])[0] < -1e8

    @settings(max_examples=300, deadline=None)
    @given(omega=st.floats(2.0**970, np.finfo(float).max), sign=st.sampled_from([-1.0, 1.0]),
           scale=st.one_of(st.floats(5e-324, np.finfo(float).max),
                           st.sampled_from([5e-324, 1e-323, 1.5e-323, 2.0**-1021, 1e300])),
           xs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    def test_standardizing_is_the_array_z(self, omega, sign, scale, xs):
        # the float twin of _z's halved form: (y - o) / s has its bits
        omega *= sign
        xs = xs + [omega, math.nextafter(omega, 0.0), -omega, 0.0, -0.0, 5e-324]
        o, s, ys = fit_module._standardizing(omega, scale, xs)
        with np.errstate(all="ignore"):
            want = distributions._z(omega, scale, np.array(xs))
        assert np.array([(y - o) / s for y in ys]).tobytes() == want.tobytes()
        below = fit_module._standardizing(math.nextafter(2.0**970, 0.0), scale, xs)
        assert below == (math.nextafter(2.0**970, 0.0), scale, xs)

    def test_rayleigh_logpdf_at_the_edges(self):
        # z/psi below the smallest normal or at 2^1023 takes log x - 2 log psi
        for psi, x in ((1e-310, [1e-310, 3e-310]), (1e200, [1e-200, 5.0, 1e300])):
            params = RayleighParams(psi)
            want = distributions.rayleigh_logpdf(params, np.array(x)).tolist()
            assert fit_module.MODELS["rayleigh"].logpdf(params, x) == pytest.approx(want, rel=4e-16)


class TestPlotFloats:
    """``perfbench`` compares the risk levels to numpy's with ``!=`` and the
    counts to ``np.histogram(x, bins="fd")``, so these are pinned bit for bit."""

    def test_risk_levels_are_numpys(self):
        assert RISK_ALPHAS == tuple(np.linspace(0.55, 0.99, 45).round(12))

    @pytest.mark.parametrize("ends", [(0.55, 0.99), (-0.25, 1.25), (0.0, 5e-324), (5e-324, 1e-322),
                                      (-1.7e308, 5e306), (3.0, 3.0), (1e-300, 1.0)])
    @pytest.mark.parametrize("num", [2, 3, 45, GRID_POINTS])
    def test_linspace_is_numpys(self, ends, num):
        assert _linspace(*ends, num) == np.linspace(*ends, num).tolist()

    def test_grid_is_numpys(self, insurance):
        grid = plot_bundle(insurance).density["x"]
        x = np.asarray(insurance.values)
        span = float(x.max() - x.min())
        assert grid == np.linspace(x.min() - 0.25 * span, x.max() + 0.25 * span,
                                   GRID_POINTS).tolist()

    SAMPLES = {
        "insurance": INSURANCE_VALUES,
        "normal": np.random.default_rng(1).normal(3.0, 2.0, 997),
        "cauchy": np.random.default_rng(2).standard_cauchy(3000),
        "lognormal": np.random.default_rng(3).lognormal(0.0, 2.0, 500),
        "tied": np.random.default_rng(4).integers(0, 7, 400) * 0.1,
        "grid": np.arange(-50, 51) / 8.0,
        "constant": [2.5] * 9,
        "one": [-0.0],
        "subnormal": np.arange(1, 41) * 5e-324,
    }

    @pytest.mark.parametrize("bins", [None, 1, 2, 7, 12, 100])
    @pytest.mark.parametrize("name", SAMPLES)
    def test_histogram_is_numpys(self, name, bins):
        x = np.asarray(self.SAMPLES[name], dtype=float)
        if bins is None:
            bins = np.histogram_bin_edges(x, bins="fd").size - 1
        try:
            got = _histogram(sorted(x.tolist()), bins)
        except DataError:  # where numpy's edges do not increase, it raises
            with pytest.raises(ValueError, match="Too many bins"):
                np.histogram(x, bins=bins)
            return
        counts, edges = np.histogram(x, bins=bins)
        assert got == (counts.tolist(), edges.tolist())
        if bins == np.histogram_bin_edges(x, bins="fd").size - 1:
            assert got[0] == np.histogram(x, bins="fd")[0].tolist()

    @settings(max_examples=300, deadline=None)
    @given(ends=st.tuples(*[st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-320, 1e-320))] * 2),
           bins=st.integers(1, 40),
           picks=st.lists(st.tuples(st.integers(0, 40), st.sampled_from((-1, 0, 0, 1))),
                          max_size=60))
    @example(ends=(0.0, 1.0), bins=10, picks=[(i, d) for i in range(11) for d in (-1, 0, 1)])
    @example(ends=(-1e300, 1e300), bins=3, picks=[(1, 0), (2, 0), (2, -1)])
    @example(ends=(5e-324, 2e-323), bins=3, picks=[(i, 0) for i in range(4)])
    # edges 1, 3, ..., 35, 40 steps of 5e-324: numpy's first guess for the value
    # on edge 14 is bin 12, and it moves it up one, into bin 13, whose edges
    # exclude it; the count by the edges puts it in bin 14
    @example(ends=(5e-324, 2e-322), bins=18, picks=[(14, 0), (15, 0), (16, 0), (17, 0)])
    def test_values_on_and_beside_the_edges(self, ends, bins, picks):
        # the sample is drawn from the edges themselves and their float
        # neighbours (within the range), with its ends first and last, so
        # that the edges are the ones drawn on.  The edges are numpy's and
        # the counts are by those edges; numpy's own counts are the same but
        # where its bins are narrower than the smallest normal double
        first, last = min(ends), max(ends)
        edges = np.linspace(first, last, bins + 1).tolist()

        def value(i, step):  # an edge, or its float neighbour below or above, in range
            edge = edges[i % (bins + 1)]
            return min(max(math.nextafter(edge, step * math.inf), first), last) if step else edge

        x = [first, last, *(value(i, step) for i, step in picks)]
        try:
            got = _histogram(sorted(x), bins)
        except DataError:
            with pytest.raises(ValueError, match="Too many bins"):
                np.histogram(x, bins=bins)
            return
        counts, want_edges = np.histogram(x, bins=bins)
        assert got == (count_by_edges(x, want_edges.tolist()), want_edges.tolist())
        if got[0] != counts.tolist():
            assert (last - first) / bins < sys.float_info.min

    def test_plot_bundle_histogram_is_fd(self):
        x = self.SAMPLES["lognormal"]
        bundle = plot_bundle(LossDataset(values=x, source="array", name="s"))
        counts, edges = np.histogram(x, bins="fd")
        assert bundle.histogram["counts"] == counts.tolist()
        assert bundle.histogram["bin_edges"] == edges.tolist()

    def test_too_many_bins_is_a_data_error(self):
        data = LossDataset(values=[0.0, 5e-324, 1e-323], source="inline", name="s")
        with pytest.raises(DataError, match="12 histogram bins do not fit in the data range"):
            plot_bundle(data, bins=12)

    def test_density_that_overflows_is_skipped(self):
        # at a subnormal scale every density exceeds the largest double
        data = LossDataset(values=[k * 1e-310 for k in range(1, 9)], source="inline", name="s")
        bundle = plot_bundle(data)
        assert bundle.density["curves"] == {}
        assert set(bundle.skipped_models) == set(fit_module.MODELS)
        assert bundle.risk["params"]["psi"] > 0.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_output_is_strict(value):
    # every JSON output goes through dump_json, which refuses the NaN and
    # Infinity tokens that RFC 8259 parsers reject, rather than write them
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_json({"stop": {"slope_tol": value}})
