"""Plot bundles: invariants, fitted-density round trip, model skipping."""

import json

import numpy as np
import pytest

from arctangr import (
    DataError,
    DomainError,
    LossDataset,
    agr_pdf,
    fit_agr,
    plot_bundle,
)
from arctangr.dataset import INSURANCE_VALUES
from arctangr.plotdata import MAX_FD_BINS, _fd_bins


@pytest.fixture(scope="module")
def bundle(insurance):
    return plot_bundle(insurance)


def test_histogram_counts_sum_to_n(bundle, insurance):
    assert sum(bundle.histogram["counts"]) == insurance.n
    assert len(bundle.histogram["bin_edges"]) == len(bundle.histogram["counts"]) + 1


@pytest.mark.parametrize("values", [
    INSURANCE_VALUES, [1.0, 1.0, 1.0, 2.0], [0.0, -0.0, 0.0, 1.0, 2.0], [5e-324, 1.0, 2.0, 3.0],
    np.random.default_rng(5).standard_cauchy(2000), np.random.default_rng(6).lognormal(0, 3, 500),
])
def test_fd_bins_equal_numpy(values):
    x = np.asarray(values, dtype=float)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    got = _fd_bins(x.size, float(x.max()) - float(x.min()), q3 - q1)
    assert got == np.histogram_bin_edges(x, bins="fd").size - 1


def test_fd_bins_beyond_a_bundle_is_data_error():
    assert _fd_bins(8, MAX_FD_BINS * 1.0, 1.0) == MAX_FD_BINS
    with pytest.raises(DataError, match=r"asks for 1e\+06 histogram bins, more than the "
                                        r"1000000 .*--bins"):
        _fd_bins(8, MAX_FD_BINS + 1.0, 1.0)
    x = LossDataset(values=np.array([1.0, 2.0, 3.0, 4.0, 1e200]), source="inline", name="w")
    with pytest.raises(DataError, match=r"asks for 4.27e\+199 histogram bins"):
        plot_bundle(x)
    with pytest.raises(DataError, match="spans -1e\\+308 to 1e\\+308"):
        plot_bundle(LossDataset(values=np.array([-1e308, 0.0, 1e308]), source="inline", name="e"),
                    bins=3)


def test_range_too_narrow_for_the_grid_is_data_error():
    # four points a few subnormal steps apart: the 401-point grid over them
    # repeats doubles, which is the data's fault, not the bundle's
    x = LossDataset(values=[1e-320, 2e-320, 3e-320, 4e-320], source="inline", name="n")
    with pytest.raises(DataError, match=r"^the sample spans 9\.99989e-321 to 3\.99996e-320, "
                                        r"too narrow a range for a density grid of 401 "
                                        r"distinct points$"):
        plot_bundle(x)


def test_bins_override(insurance):
    b = plot_bundle(insurance, bins=7)
    assert len(b.histogram["counts"]) == 7
    # any integer that operator.index takes, numpy's too; the cap is the FD rule's
    assert len(plot_bundle(insurance, bins=np.int64(3)).histogram["counts"]) == 3
    assert len(plot_bundle(insurance, bins=MAX_FD_BINS).histogram["counts"]) == MAX_FD_BINS


@pytest.mark.parametrize("bins, message", [
    (0, "a positive integer, got 0"), (-3, "a positive integer, got -3"),
    (2.5, "a positive integer, got 2.5"), (12.0, "a positive integer, got 12.0"),
    ("12", "a positive integer, got '12'"), (np.float64(7.0), "a positive integer, got "),
    (MAX_FD_BINS + 1, "at most 1000000, the most histogram bins a plot bundle holds, "
                      "got 1000001"),
    (10**8, "at most 1000000, .* got 100000000"),
])
def test_bad_bins_is_domain_error_before_any_work(bins, message):
    # the count is checked first: the dataset here is no dataset at all, and
    # 0 once divided by zero, -3 indexed out of range, 2.5 gave 2 bins, and
    # 10**8 would have built lists of 10**8 edges and counts
    with pytest.raises(DomainError, match=f"^--bins must be {message}"):
        plot_bundle(None, bins=bins)


def test_boxplot_five_number_and_outliers(bundle):
    five = bundle.boxplot["five_number"]
    assert five["min"] == 0.029 and five["max"] == 0.222
    assert five["q1"] == pytest.approx(0.05325)
    assert five["median"] == pytest.approx(0.0635)
    assert five["q3"] == pytest.approx(0.07475)
    # fences at q3 + 1.5*iqr = 0.107: six observations lie beyond
    assert bundle.boxplot["outliers"] == sorted([0.137, 0.170, 0.222, 0.109, 0.114, 0.133])


def test_density_grid_strictly_increasing_and_nonnegative(bundle):
    x = np.asarray(bundle.density["x"])
    assert np.all(np.diff(x) > 0)
    for col in bundle.density["curves"].values():
        assert np.all(np.asarray(col) >= 0)


def test_density_round_trip_exact(bundle, insurance):
    fitted = fit_agr(insurance).params
    grid = np.asarray(bundle.density["x"])
    direct = agr_pdf(fitted, grid)
    np.testing.assert_allclose(bundle.density["curves"]["agr"], direct, rtol=0, atol=1e-12)


def test_risk_block_monotone(bundle):
    alphas = bundle.risk["alpha"]
    assert alphas == sorted(alphas)
    var_col = bundle.risk["var"]
    tvar_col = bundle.risk["tvar"]
    assert all(b >= a for a, b in zip(var_col, var_col[1:]))
    assert all(t > v for v, t in zip(var_col, tvar_col))


def test_rayleigh_skipped_on_negative_data():
    rng = np.random.default_rng(5)
    ds = LossDataset(values=rng.normal(0.0, 1.0, 400), source="inline", name="centered")
    b = plot_bundle(ds)
    assert "rayleigh" in b.skipped_models
    assert "rayleigh" not in b.density["curves"]
    assert "agr" in b.density["curves"]


def test_json_serializes(bundle):
    payload = json.loads(bundle.to_json())
    assert set(payload) == {"histogram", "boxplot", "density", "risk", "skipped_models"}


def test_text_summary_mentions_models(bundle):
    text = bundle.to_text()
    assert "agr" in text and "gaussian" in text
    assert "five-number" in text


def test_invariant_validation():
    good = dict(
        histogram={"n": 2, "bin_edges": [0, 1, 2], "counts": [1, 1]},
        boxplot={"five_number": {"min": 0, "q1": 0, "median": 1, "q3": 2, "max": 2},
                 "fences": {"low": -3, "high": 5}, "outliers": []},
        density={"x": [0.0, 1.0], "curves": {"agr": [0.1, 0.2]}},
        risk={"params": {}, "alpha": [0.8], "var": [1.0], "tvar": [2.0], "tv": [0.1]},
    )
    from arctangr import PlotBundle

    PlotBundle(**good)  # sanity: the valid payload constructs
    bad = {**good, "histogram": {"n": 3, "bin_edges": [0, 1, 2], "counts": [1, 1]}}
    with pytest.raises(DomainError):
        PlotBundle(**bad)
    bad = {**good, "density": {"x": [1.0, 0.0], "curves": {}}}
    with pytest.raises(DomainError):
        PlotBundle(**bad)
    bad = {**good, "density": {"x": [0.0, 1.0], "curves": {"agr": [-0.1, 0.2]}}}
    with pytest.raises(DomainError):
        PlotBundle(**bad)
