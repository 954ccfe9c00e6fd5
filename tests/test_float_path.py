"""The per-level and scalar calls run in Python floats: the risk rows, the risk
report's checks, the raw moments and the elementwise kernels on one number.
Each must equal its array form bit for bit (``tail_oracle`` for the tail, the
1-element array path for the kernels) and raise the same message wherever
that raises."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tail_oracle as ref
from arctangr import distributions as D
from arctangr import (
    P_STAR,
    ArctanGRParams,
    BaseDistribution,
    DomainError,
    RiskReport,
    RiskRow,
    arctan_cdf,
    arctan_pdf,
    risk_curve,
    tv,
    tvar,
)
from arctangr.plotdata import RISK_ALPHAS
from arctangr.risk import MCOracleResult
from arctangr.tail import _CACHED_LEVELS


def bits(value):
    """Every float in ``value`` (a float, or nested tuples of them) as its bit
    pattern, so that -0.0 and 0.0 differ and NaN equals itself."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return np.float64(value).view(np.int64).item()


def outcome(fn, *args):
    """``("ok", bits of the result)`` or ``("raises", type, message)``."""
    try:
        result = fn(*args)
    except (DomainError, OverflowError, TypeError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    return ("ok", bits(result))


def outcome_or_fp(fn, *args):
    """:func:`outcome`, or ``("fp", kind)`` for a numpy floating-point error
    (its kind, "overflow encountered", without the ufunc's name)."""
    try:
        return outcome(fn, *args)
    except FloatingPointError as exc:
        return ("fp", str(exc).split(" in ")[0])


P_NEAR_STAR = [P_STAR, math.nextafter(P_STAR, 0.0), math.nextafter(P_STAR, 1.0)]
LEVELS = st.one_of(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
                   st.sampled_from(P_NEAR_STAR + [math.nextafter(0.5, 1.0),
                                                  math.nextafter(1.0, 0.0), 1.0 - 1e-13]))
GRID_SIZES = (1, 6, 45, 256, 257)


@st.composite
def tail_params(draw):
    """omega/psi from 0 to +-1e8, psi from 1e-3 to 1e3."""
    psi = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-3, 1.0, 1e3])))
    ratio = draw(st.one_of(st.floats(-1e8, 1e8), st.sampled_from([0.0, -0.0, 1e8, -1e8])))
    return ArctanGRParams(ratio * psi, psi)


@st.composite
def level_grids(draw, sizes=GRID_SIZES):
    size = draw(st.sampled_from(sizes))
    seed = draw(st.integers(0, 2**32 - 1))
    levels = np.random.default_rng(seed).uniform(0.5, 1.0, size)
    levels[levels <= 0.5] = P_STAR
    picks = draw(st.lists(LEVELS, max_size=min(size, 8)))
    levels[:len(picks)] = picks
    return levels.tolist()


class TestRiskRows:
    @settings(max_examples=60, deadline=None)
    @given(params=tail_params(), levels=level_grids())
    @example(params=ArctanGRParams(0.0, 1.0), levels=P_NEAR_STAR)
    @example(params=ArctanGRParams(-1e11, 1e3), levels=[P_STAR] * 257)
    def test_rows_bit_identical(self, params, levels):
        want = bits(ref.risk_rows(params, levels))
        assert bits(risk_curve(params, levels).rows) == want
        # a numpy array, and reversed, take the same path to the same rows
        assert bits(risk_curve(params, np.array(levels[::-1])).rows) == want
        for a in levels[:3]:
            assert bits(tvar(params, a)) == bits(ref.tvar(params, a))
            assert bits(tv(params, a)) == bits(ref.tv(params, a))

    EDGES = [1e308, -1e308, 1.7e308, -1.7e308, 1e200, 1e154, 1.4e154, 0.0, 1.0, 5e-324]

    @settings(max_examples=150, deadline=None)
    @given(omega=st.one_of(st.sampled_from(EDGES), st.floats(-1.79e308, 1.79e308)),
           psi=st.one_of(st.sampled_from([e for e in EDGES if e > 0.0]),
                         st.floats(1e150, 1.79e308)),
           levels=st.one_of(st.lists(LEVELS, min_size=1, max_size=6),
                            level_grids(sizes=(45, _CACHED_LEVELS + 1))))
    @example(omega=1e308, psi=1e308, levels=[0.99])
    @example(omega=1e308, psi=1e308, levels=[0.6, 0.99])
    # VaR below omega overflows to -inf while TVaR stays finite
    @example(omega=-1.7e308, psi=1e308, levels=[0.51, 0.9])
    @example(omega=-1e308, psi=1e154, levels=[0.51])
    @example(omega=0.0, psi=1e200, levels=[0.9])
    # on the plot bundle's 45 levels: every VaR and TVaR is finite, and their
    # sums overflow
    @example(omega=1.7e308, psi=1e150, levels=list(RISK_ALPHAS))
    # VaR overflows from alpha = 0.87 on: the first of them is named
    @example(omega=1.7e308, psi=1e307, levels=list(RISK_ALPHAS[::-1]))
    def test_overflow_raises_the_same_message(self, omega, psi, levels):
        params = ArctanGRParams(omega, psi)
        assert outcome(lambda: risk_curve(params, levels).rows) == \
            outcome(ref.risk_rows, params, levels)
        for a in levels:
            assert outcome(tvar, params, a) == outcome(ref.tvar, params, a)
            assert outcome(tv, params, a) == outcome(ref.tv, params, a)

    @pytest.mark.parametrize("alphas", [[], [0.9, math.nan], [0.9, 0.5], [1.0], [0.7, math.inf],
                                        [math.inf, -math.inf], [0.8, math.nan, 0.4],
                                        [[0.9], [0.8]], [[0.9, 0.8]]])
    def test_invalid_levels_raise_the_same_message(self, alphas):
        params = ArctanGRParams(0.0, 1.0)
        assert outcome(lambda: risk_curve(params, alphas).rows) == \
            outcome(ref.risk_rows, params, alphas)


ROW_VALUES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(
    [0.0, -0.0, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 - 3e-9, -1e-12, math.inf, -math.inf, math.nan]))
ROWS = st.lists(st.builds(RiskRow, ROW_VALUES, ROW_VALUES, ROW_VALUES, ROW_VALUES), max_size=8)


class TestReportChecks:
    MC = MCOracleResult(1.0, 1.0, 0.1, 0.1, 10, 100)

    @settings(max_examples=400, deadline=None)
    @given(rows=ROWS, mc=st.integers(0, 9))
    @example(rows=[RiskRow(0.9, 1.0, 2.0, 0.1), RiskRow(0.8, 1.0, 0.5, 0.1)], mc=0)
    @example(rows=[RiskRow(0.8, 1.0, 2.0, 0.1), RiskRow(0.9, 0.5, 1.0, -0.1)], mc=0)
    @example(rows=[RiskRow(0.9, 1.0, 2.0, 0.1), RiskRow(0.8, 0.5, 1.0, 0.1)], mc=3)
    @example(rows=[RiskRow(0.8, 2.0, 2.0, 0.1), RiskRow(0.9, 1.0, 1.5, 0.1)], mc=0)
    @example(rows=[RiskRow(0.8, 1.0, 3.0, 0.1), RiskRow(0.9, 2.0, 2.0, 0.1)], mc=0)
    @example(rows=[RiskRow(math.nan, 1.0, 2.0, 0.1), RiskRow(0.5, 1.0, 2.0, 0.1)], mc=0)
    @example(rows=[RiskRow(0.9, 1.0, 2.0, 0.1), RiskRow(math.nan, 1.0, 2.0, 0.1),
                   RiskRow(0.8, 1.0, 2.0, 0.1)], mc=0)
    def test_same_checks_in_the_same_order(self, rows, mc):
        rows, mc_check = tuple(rows), (self.MC,) * mc

        def build():
            return RiskReport(rows, "model", mc_check=mc_check).rows

        def check():
            ref.check_report(rows, mc_check)
            return rows

        assert outcome(build) == outcome(check)


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(params=tail_params(), r=st.integers(1, 175))
    @example(params=ArctanGRParams(0.0, 1.0), r=170)
    @example(params=ArctanGRParams(0.0, 1.0), r=171)
    @example(params=ArctanGRParams(10.0, 1.0), r=400)
    @example(params=ArctanGRParams(-1e8, 1e3), r=38)
    def test_bit_identical(self, params, r):
        assert outcome(D.agr_moment, params, r) == outcome(ref.agr_moment, params, r)

    @pytest.mark.parametrize("params", [ArctanGRParams(0.02, 0.005), ArctanGRParams(-3.0, 7.0),
                                        ArctanGRParams(1e8, 1e-3), ArctanGRParams(1.5, 1e150)])
    def test_every_order(self, params):
        for r in [*range(1, 200), 10**6, np.int64(12)]:
            assert outcome(D.agr_moment, params, r) == outcome(ref.agr_moment, params, r)


AGR = ArctanGRParams(0.3, 2.0)
X_KERNELS = {f.__name__: (f, AGR) for f in (
    D.agr_cdf, D.agr_survival, D.agr_pdf, D.agr_logpdf, D.agr_cum_hazard, D.agr_hazard,
    D.mixture_kernel_pdf, D.mixture_kernel_cdf, D.mixture_kernel_logpdf)}
X_KERNELS.update({
    "gaussian_pdf": (D.gaussian_pdf, D.GaussianParams(0.3, 2.0)),
    "gaussian_cdf": (D.gaussian_cdf, D.GaussianParams(0.3, 2.0)),
    "gaussian_logpdf": (D.gaussian_logpdf, D.GaussianParams(0.3, 2.0)),
    "rayleigh_pdf": (D.rayleigh_pdf, D.RayleighParams(2.0)),
    "rayleigh_cdf": (D.rayleigh_cdf, D.RayleighParams(2.0)),
    "rayleigh_logpdf": (D.rayleigh_logpdf, D.RayleighParams(2.0)),
})
P_KERNELS = {
    "agr_quantile": (D.agr_quantile, AGR),
    "mixture_kernel_quantile": (D.mixture_kernel_quantile, AGR),
    "gaussian_quantile": (D.gaussian_quantile, D.GaussianParams(0.3, 2.0)),
    "rayleigh_quantile": (D.rayleigh_quantile, D.RayleighParams(2.0)),
}
X_EDGES = [0.0, -0.0, 0.3, 5e-324, -5e-324, 1e308, -1e308, 1500.0, -1500.0, 37.0,
           math.inf, -math.inf, math.nan]
P_EDGES = [*P_NEAR_STAR, 0.5, 5e-324, 1e-300, math.nextafter(1.0, 0.0), 0.0, -0.0, 1.0, -0.5,
           2.0, math.inf, -math.inf, math.nan]


def scalar_forms(v):
    """``v`` as a Python float, an ``np.float64`` and, where exact, an int."""
    forms = [float(v), np.float64(v)]
    if math.isfinite(v) and v == int(v) and abs(v) < 2**53:
        forms.append(int(v))
    return forms


def array_path(fn, params, v):
    """``fn`` on the 1-element array ``[v]``, its one element as a float."""
    return float(fn(params, np.array([v]))[0])


class TestScalarKernels:
    @pytest.mark.parametrize("name", X_KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(v=st.one_of(st.floats(), st.floats(-50.0, 50.0), st.sampled_from(X_EDGES)))
    def test_x_kernels(self, name, v):
        self.check(*X_KERNELS[name], v)

    @pytest.mark.parametrize("name", P_KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(v=st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from(P_EDGES)))
    def test_p_kernels(self, name, v):
        self.check(*P_KERNELS[name], v)

    @staticmethod
    def check(fn, params, v):
        with np.errstate(all="ignore"):
            want = outcome(array_path, fn, params, v)
        for form in scalar_forms(v):
            with np.errstate(all="ignore"):
                got = outcome(fn, params, form)
                assert got[0] != "ok" or type(fn(params, form)) is float
            assert got == want, (form, got, want)

    @pytest.mark.parametrize("name", [*X_KERNELS, *P_KERNELS])
    def test_int_beyond_the_double_range(self, name):
        fn, params = {**X_KERNELS, **P_KERNELS}[name]
        for v in (10**400, -(10**400)):
            assert outcome(fn, params, v) == outcome(fn, params, [v])
            assert outcome(fn, params, v)[:2] == ("raises", "OverflowError")

    @pytest.mark.parametrize("name", [*X_KERNELS, *P_KERNELS])
    def test_edges_warn_as_a_0d_array_does(self, name):
        # with numpy's errors raised, the scalar path stops where and as the
        # 0-d array path does
        fn, params = {**X_KERNELS, **P_KERNELS}[name]
        for v in X_EDGES + P_EDGES:
            for form in scalar_forms(v):
                with np.errstate(all="raise"):
                    assert outcome_or_fp(fn, params, form) == outcome_or_fp(fn, params, np.array(v))


class TestArctanTransformScalar:
    """The generic transform hands its base callables ndarrays, 0-d for one
    number, as :class:`arctangr.BaseDistribution` documents."""

    @staticmethod
    def in_place_base():
        def clip(x):  # writes into a copy of its input: needs an ndarray
            out = x.copy()
            out[x < 0] = 0.0
            return out

        return BaseDistribution(cdf=lambda x: clip(x) / (1.0 + clip(x)),
                                pdf=lambda x: 1.0 / (1.0 + clip(x)) ** 2 * (x >= 0))

    @pytest.mark.parametrize("fn", [arctan_cdf, arctan_pdf])
    def test_scalar_takes_the_0d_path(self, fn):
        base = self.in_place_base()
        for v in (0.5, 3, np.float64(-2.0), 0.0):
            got = fn(base, v)
            assert type(got) is float
            assert bits(got) == bits(fn(base, np.array([float(v)]))[0])
