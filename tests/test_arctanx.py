"""Generic arctan transform: trivial values, invariants, dual-route checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from arctangr import (
    ArctanGRParams,
    BaseDistribution,
    DomainError,
    GaussianParams,
    RayleighParams,
    agr_cdf,
    agr_pdf,
    arctan_cdf,
    arctan_pdf,
    gaussian_base,
    mixture_kernel_base,
    rayleigh_base,
)
from arctangr._arrays import BLOCK
from arctangr.arctanx import FOUR_OVER_PI

# (4/pi) * arctan(1/2), evaluated at 40-digit precision and frozen
CDF_AT_HALF = 0.59033447060173305

GAUSS = gaussian_base(GaussianParams(omega=0.0, eta=1.0))
RAYL = rayleigh_base(RayleighParams(psi=2.0))
KERNEL = mixture_kernel_base(ArctanGRParams(omega=0.5, psi=1.5))

ALL_BASES = [GAUSS, RAYL, KERNEL]


def constant_base(h_value, density):
    return BaseDistribution(cdf=lambda x: np.full_like(x, h_value),
                            pdf=lambda x: np.full_like(x, density))


def test_cdf_at_base_zero_and_one():
    assert arctan_cdf(constant_base(0.0, 0.1), 1.23) == 0.0
    assert arctan_cdf(constant_base(1.0, 0.1), 1.23) == pytest.approx(1.0, abs=1e-15)


def test_cdf_at_base_half_matches_closed_form():
    assert arctan_cdf(constant_base(0.5, 0.1), 0.0) == pytest.approx(CDF_AT_HALF, abs=1e-15)


def test_pdf_prefactor_at_cdf_extremes():
    # denominator 1 + H^2 is 1 at H=0 and 2 at H=1
    assert arctan_pdf(constant_base(0.0, 0.7), 0.0) == pytest.approx(0.7 * 4 / np.pi)
    assert arctan_pdf(constant_base(1.0, 0.7), 0.0) == pytest.approx(0.7 * 2 / np.pi)
    assert arctan_pdf(constant_base(0.3, 0.0), 0.0) == 0.0


def test_limits_use_support_not_base_cdf():
    def strict_cdf(x):
        assert np.isfinite(x).all(), "base cdf must never see infinite arguments"
        return np.clip(x, 0.0, 1.0)

    base = BaseDistribution(cdf=strict_cdf, pdf=lambda x: np.ones_like(x),
                            support=(0.0, 1.0))
    assert arctan_cdf(base, -np.inf) == 0.0
    assert arctan_cdf(base, np.inf) == pytest.approx(1.0, abs=1e-15)
    out = arctan_cdf(base, np.array([-np.inf, 0.5, np.inf]))
    assert out[0] == 0.0 and out[2] == pytest.approx(1.0, abs=1e-15)


def test_nan_rejected_and_pdf_requires_finite():
    with pytest.raises(DomainError):
        arctan_cdf(GAUSS, np.nan)
    with pytest.raises(DomainError):
        arctan_pdf(GAUSS, np.inf)


def test_base_distribution_validation():
    with pytest.raises(DomainError):
        BaseDistribution(cdf=lambda x: x, pdf=lambda x: x, support=(1.0, 1.0))


@pytest.mark.parametrize("base", ALL_BASES)
def test_transformed_density_normalizes(base):
    lo = max(base.support[0], -60.0)
    hi = min(base.support[1], 60.0)
    total, _ = quad(lambda x: arctan_pdf(base, x), lo, hi, limit=200,
                    epsabs=1e-12, epsrel=1e-12)
    assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("base", ALL_BASES)
def test_transformed_cdf_nondecreasing_and_preserves_support(base):
    lo = max(base.support[0], -40.0)
    hi = min(base.support[1], 40.0)
    grid = np.linspace(lo, hi, 500)
    vals = arctan_cdf(base, grid)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] < 1e-6 and vals[-1] > 1 - 1e-6
    if base.support[0] == 0.0:  # nothing below a bounded support
        assert arctan_cdf(base, -5.0) == 0.0


@pytest.mark.parametrize("base,scale", [(GAUSS, 1.0), (RAYL, 2.0)])
def test_cdf_derivative_matches_pdf(base, scale):
    # central differences; stencil never crosses a density kink for these bases
    lo = base.support[0] if np.isfinite(base.support[0]) else -4.0 * scale
    x = np.linspace(lo + 0.1 * scale, 4.0 * scale, 200)
    h = 1e-6 * scale
    xp, xm = x + h, x - h
    num = (arctan_cdf(base, xp) - arctan_cdf(base, xm)) / (xp - xm)
    g = arctan_pdf(base, x)
    keep = g > 1e-12
    rel = np.abs(num[keep] - g[keep]) / g[keep]
    assert rel.max() < 1e-6


@pytest.mark.parametrize("base", ALL_BASES)
def test_density_ratio_bounded(base):
    lo = max(base.support[0], -20.0)
    x = np.linspace(lo + 1e-3, 20.0, 300)
    ratio = arctan_pdf(base, x) / base.pdf(x)
    assert np.all(ratio >= 2 / np.pi - 1e-12)
    assert np.all(ratio <= 4 / np.pi + 1e-12)


def test_transform_of_kernel_equals_agr_closed_forms():
    # dual route: generic transform of the Laplace kernel vs the direct formulas
    params = ArctanGRParams(omega=0.5, psi=1.5)
    base = mixture_kernel_base(params)
    x = np.linspace(-8.0, 9.0, 401)
    np.testing.assert_allclose(arctan_cdf(base, x), agr_cdf(params, x), rtol=0, atol=1e-15)
    np.testing.assert_allclose(arctan_pdf(base, x), agr_pdf(params, x), rtol=1e-14)


def test_scalar_in_scalar_out():
    assert isinstance(arctan_cdf(GAUSS, 0.3), float)
    assert isinstance(arctan_pdf(GAUSS, 0.3), float)
    assert arctan_cdf(GAUSS, np.array([0.3])).shape == (1,)


def masked_arctan_cdf(base, x):
    """``arctan_cdf`` with every argument taking the masked route: the base
    CDF on the finite entries only, the limits scattered in for +-inf."""
    v = np.asarray(x, dtype=float)
    h = np.empty(v.shape)
    finite = np.isfinite(v)
    h[finite] = base.cdf(v[finite])
    h[v == -np.inf] = 0.0
    h[v == np.inf] = 1.0
    return FOUR_OVER_PI * np.arctan(h)


@pytest.mark.parametrize("base", ALL_BASES)
@pytest.mark.parametrize("layout", ["finite", "inf", "mixed", "blocks"])
def test_cdf_finite_blocks_keep_masked_bits(base, layout):
    # all finite (the direct route), only +-inf, a mix, and several BLOCKs of
    # which only the middle one holds infinities
    x = np.random.default_rng(3).standard_cauchy(3 * BLOCK + 7) * 4.0
    if layout == "finite":
        x = x[:1000]
    elif layout == "inf":
        x = np.array([np.inf, -np.inf, -np.inf, np.inf])
    elif layout == "mixed":
        x = x[:1000]
        x[::7], x[3::11] = np.inf, -np.inf
    else:
        x[BLOCK + 5], x[2 * BLOCK - 1] = -np.inf, np.inf
    got = arctan_cdf(base, x)
    assert got.view(np.int64).tolist() == masked_arctan_cdf(base, x).view(np.int64).tolist()
    for v in (x[0], x[-1], 0.0, -0.0):
        assert np.float64(arctan_cdf(base, v)).view(np.int64) == \
            masked_arctan_cdf(base, np.array([v]))[0].view(np.int64)
