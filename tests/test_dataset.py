"""Dataset ingestion, the embedded fixture, and descriptive statistics."""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arctangr import (
    P_STAR,
    DataError,
    LossDataset,
    describe,
    empirical_risk,
    fit_agr,
    fit_gaussian,
    ingest,
)
from arctangr._util import bowley_moors, mean_var, unit_exponent
from arctangr.dataset import _linear_quantile
from sum_oracle import exact_mean_var


class TestEmbedded:
    def test_insurance_fixture(self, insurance):
        assert insurance.n == 58
        assert insurance.values[0] == 0.052
        assert insurance.values[-1] == 0.073
        assert max(insurance.values) == 0.222
        assert insurance.source == "embedded:insurance"
        assert insurance.name == "insurance"

    def test_unknown_embedded(self):
        with pytest.raises(DataError, match="embedded"):
            ingest("embedded:nope")

    def test_sorted_view_cached_and_readonly(self, insurance):
        s = insurance.sorted_values
        assert s is insurance.sorted_values
        assert np.all(np.diff(s) >= 0)
        # the floats are tuples; the sorted array, made on first use, is read-only
        assert type(s) is tuple and type(insurance.values) is tuple
        with pytest.raises(TypeError):
            s[0] = 99.0
        with pytest.raises(TypeError):
            insurance.values[0] = 99.0
        arr = insurance.sorted_array
        assert arr.tolist() == list(insurance.sorted_values)
        with pytest.raises(ValueError):
            arr[0] = 99.0


class TestIngestFiles:
    def test_plain_values(self, tmp_path):
        f = tmp_path / "vals.csv"
        f.write_text("1.5\n2.5\n-3.0\n")
        ds = ingest(f)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.values, [1.5, 2.5, -3.0])
        assert ds.name == "vals"

    def test_single_value(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("1.5\n")
        assert ingest(f).n == 1

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "with_header.csv"
        f.write_text("loss\n0.1\n0.2\n")
        ds = ingest(f)
        np.testing.assert_array_equal(ds.values, [0.1, 0.2])

    def test_crlf_and_blank_lines(self, tmp_path):
        f = tmp_path / "crlf.csv"
        f.write_bytes(b"loss\r\n0.1\r\n\r\n0.2\r\n")
        np.testing.assert_array_equal(ingest(f).values, [0.1, 0.2])

    def test_utf8_bom(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf0.25\n0.5\n")
        np.testing.assert_array_equal(ingest(f).values, [0.25, 0.5])

    def test_bad_line_cites_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0\n2.0\nabc\n4.0\n")
        with pytest.raises(DataError, match="line 3"):
            ingest(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "inf.csv"
        f.write_text("1.0\nnan\n")
        with pytest.raises(DataError, match="line 2"):
            ingest(f)

    def test_multi_column_rejected(self, tmp_path):
        f = tmp_path / "wide.csv"
        f.write_text("1.0,2.0\n")
        with pytest.raises(DataError, match="single column"):
            ingest(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(DataError, match="no numeric values"):
            ingest(f)
        f.write_text("header_only\n")
        with pytest.raises(DataError, match="no numeric values"):
            ingest(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            ingest(tmp_path / "absent.csv")


class TestLossDataset:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(DataError):
            LossDataset(values=np.array([]), source="inline", name="x")
        with pytest.raises(DataError):
            LossDataset(values=np.array([1.0, np.nan]), source="inline", name="x")
        with pytest.raises(DataError):
            LossDataset(values=np.array([1.0, np.inf]), source="inline", name="x")

    @pytest.mark.parametrize("text", ["5678", "1", b"\x01\x02\x03", bytearray(b"12")])
    def test_text_is_not_a_sample(self, text):
        # a str or bytes was once read as a sequence of characters: "5678" as
        # the four digits, b"\x01\x02\x03" as (1.0, 2.0, 3.0)
        with pytest.raises(DataError, match=r"^dataset 'x' must be a nonempty 1-d sample$"):
            LossDataset(values=text, source="inline", name="x")
        with pytest.raises(DataError, match="must be a nonempty 1-d sample"):
            fit_agr(text)

    def test_order_preserved(self):
        x = np.array([3.0, 1.0, 2.0])
        ds = LossDataset(values=x, source="inline", name="x")
        np.testing.assert_array_equal(ds.values, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(ds.sorted_values, [1.0, 2.0, 3.0])
        # an ndarray is sorted into a read-only copy; the caller's is left as it was
        assert ds.sorted_array.tolist() == [1.0, 2.0, 3.0] and not ds.sorted_array.flags.writeable
        assert x.tolist() == [3.0, 1.0, 2.0] and x.flags.writeable


class TestDescribe:
    def test_tiny_sample(self):
        ds = LossDataset(values=np.array([1.0, 2.0, 3.0]), source="inline", name="t")
        stats = describe(ds)
        assert stats.n == 3
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.min == 1.0 and stats.max == 3.0

    def test_insurance_summary(self, insurance):
        stats = describe(insurance)
        assert stats.n == 58
        assert stats.max == 0.222
        assert stats.mean == pytest.approx(0.070672413793103461, abs=1e-15)
        assert stats.sd == pytest.approx(0.032362381274557192, abs=1e-15)
        assert stats.median == 0.0635
        assert stats.q1 == pytest.approx(0.05325, abs=1e-12)
        assert stats.q3 == pytest.approx(0.07475, abs=1e-12)
        assert stats.bowley_skewness == pytest.approx(0.046511627906976792, abs=1e-12)
        assert stats.moors_kurtosis == pytest.approx(1.6627906976744182, abs=1e-12)

    def test_constant_sample_shape_measures_zero(self):
        ds = LossDataset(values=np.full(5, 2.0), source="inline", name="c")
        stats = describe(ds)
        assert stats.bowley_skewness == 0.0
        assert stats.moors_kurtosis == 0.0

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0, 4.0, 1e200],
                                        [1e154, -1e154, 3.0, 4.0, 5.0],
                                        [1e300, 2e300, -3e300, 5.0]])
    def test_squares_overflow_sd_as_gaussian_fit(self, values):
        # x.std() overflows here; the rescaled mean and SD are the Gaussian fit's
        stats = describe(LossDataset(values=np.array(values), source="inline", name="w"))
        fit = fit_gaussian(np.array(values)).params
        assert (stats.mean, stats.sd) == (fit.omega, fit.eta)
        assert 0.0 < stats.sd <= max(map(abs, values))

    @pytest.mark.parametrize("values", [[1e308, 1.7e308, 1.7e308, 1.7e308],
                                        [-1.4e308] * 3 + [-0.4e308] * 2,
                                        [1.7e308, 1.7e308, -1e308],
                                        [-1.7e308, 1e308, 1.7e308, 1.7e308, 2.0],
                                        # the sum meets inf and -inf: a NaN mean unscaled
                                        [1.7976931348623157e308] * 6
                                        + [-1.7976931348623157e308] * 2 + [0.0]])
    def test_near_the_double_limit_as_at_a_sixteenth(self, values):
        # the octiles' sums and gaps leave the double range here; every
        # statistic is that of the sample over 16, times 16, bit for bit
        stats = describe(LossDataset(values=np.array(values), source="inline", name="t"))
        small = describe(LossDataset(values=np.array(values) / 16.0, source="inline", name="t"))
        for key, value in stats.as_dict().items():
            scale = 1.0 if key in ("n", "bowley_skewness", "moors_kurtosis") else 16.0
            assert value == scale * small.as_dict()[key], key
        assert math.isfinite(stats.bowley_skewness) and math.isfinite(stats.moors_kurtosis)

    TOP = 1.7976931348623157e308

    @settings(max_examples=150, deadline=None)
    @given(x=st.one_of(
        st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.1, 7.0]), st.floats(-1e6, 1e6)),
                 min_size=1, max_size=50),
        st.lists(st.floats(1e308, TOP), min_size=1, max_size=12),
        st.lists(st.floats(-TOP, -1e308), min_size=1, max_size=12),
        st.lists(st.one_of(st.sampled_from([TOP, -TOP, 1.7e308, -1e308, 0.0]),
                           st.floats(-TOP, TOP)), min_size=1, max_size=12)))
    @example(x=[1e308, 1.7e308, 1.7e308, 1.7e308])
    @example(x=[-1.4e308] * 3 + [-0.4e308] * 2)
    @example(x=[-1.7e308, 1e308, 1.7e308, 1.7e308, 2.0])
    def test_octiles_are_numpys(self, x):
        # the seven octiles are np.quantile's, bit for bit, wherever numpy's
        # own steps stay in the double range; Bowley and Moors are read from them
        x = np.array(x)
        with np.errstate(over="raise", invalid="raise"):
            try:
                octiles = np.quantile(x, np.arange(1, 8) / 8).tolist()
            except FloatingPointError:
                assume(False)
        stats = describe(LossDataset(values=x, source="inline", name="h"))
        bits = quantile_bits(x)
        assert [bits(stats.q1), bits(stats.median), bits(stats.q3)] == [
            bits(octiles[1]), bits(octiles[3]), bits(octiles[5])]
        assert (stats.bowley_skewness, stats.moors_kurtosis) == bowley_moors(octiles)

    def test_as_dict_keys_ordered(self, insurance):
        d = describe(insurance).as_dict()
        assert list(d)[:4] == ["n", "mean", "median", "sd"]


def quantile_bits(x):
    """The bytes by which ``np.quantile`` and ``_linear_quantile`` must agree
    on a quantile of ``x``.  ``np.quantile`` orders 0.0 and -0.0 either way;
    with both in ``x`` only the sign of a zero result is left open, and
    + 0.0 erases it."""
    zero_signs = np.signbit(x[x == 0])
    mixed_zeros = zero_signs.any() and not zero_signs.all()
    return lambda v: np.float64(v + 0.0 if mixed_zeros else v).tobytes()


class TestLinearQuantile:
    LEVELS = [0.0, 1.0, P_STAR, 0.5, 0.25, math.nextafter(1.0, 0.0), 5e-324, 1.0 / 3.0]

    # samples drawn from a few values so ties are common; sizes of both parities
    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.1, 0.2, 0.3, 7.0]),
                             st.floats(-1e6, 1e6), st.floats(-1e300, 1e300)),
                   min_size=1, max_size=60),
        q=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(LEVELS)),
                   min_size=1, max_size=8),
    )
    @example(x=[0.3, 0.1, 0.2, 0.1], q=[0.0, 0.5, 1.0])
    @example(x=[5.0], q=[0.0, 0.25, 1.0])
    @example(x=[-0.0], q=[0.0])
    @example(x=[-0.0, -0.0], q=[1.0])
    @example(x=[-0.0, 0.0, 0.0], q=[P_STAR])
    @example(x=[0.0, -0.0], q=[0.5])
    @example(x=[0.0, -1.5, -0.0, -0.0, 0.1], q=[0.5])
    @example(x=[0.3, 0.1, 0.2, 0.1, 0.1, 7.0], q=[P_STAR])
    @example(x=[-0.0, -0.0, -0.0], q=[0.0, P_STAR, 1.0])
    @example(x=[2.0, 2.0, 2.0, 5.0], q=[P_STAR])
    @example(x=[-1e300, 1e300], q=[0.75])
    def test_equals_numpy_bitwise(self, x, q):
        # one level per call, a Python float or an np.float64, against numpy's
        # scalar and array paths: the same index arithmetic and lerp, signed
        # zeros, ties and the top of the range included
        x = np.array(x)
        xs = np.sort(x)
        bits = quantile_bits(x)
        for level, want in zip(q, np.quantile(x, q).tolist()):
            assert bits(np.quantile(x, level)) == bits(want)
            for lv in (level, np.float64(level)):
                got = _linear_quantile(xs, lv)
                assert type(got) is float
                assert bits(got) == bits(want)

    # finite doubles over the whole range, but none so small that a quarter
    # of it would round
    WIDE = st.floats(-1.7976931348623157e308, 1.7976931348623157e308).filter(
        lambda v: v == 0.0 or abs(v) > 1e-300)

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.one_of(st.sampled_from([1.7e308, -1.7e308, 1e308, -0.0, 1.0]), WIDE),
                      min_size=1, max_size=12),
           q=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(LEVELS)),
                      min_size=1, max_size=6))
    @example(x=[1.7e308, 1.7e308, -1e308], q=[0.125, 0.25, 0.5])
    @example(x=[-1.7976931348623157e308, 1.7976931348623157e308], q=[0.0, 0.5, 1.0 / 3.0])
    @example(x=[-0.0, 1.0], q=[5e-324])
    def test_gaps_beyond_the_double_range(self, x, q):
        # numpy's bits where its steps stay in the double range; where b - a
        # overflows the steps run at half scale, exactly, so the level is 4
        # times the quantile of the sample over 4, bit for bit.  That oracle is
        # kept to the overflowing gaps: elsewhere its own diff * gamma may
        # underflow where numpy's does not, as on [-0.0, 1.0] at 5e-324
        x = np.array(x)
        xs = np.sort(x)
        bits = quantile_bits(x)
        for level in q:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    want = float(np.quantile(x, level))
            except FloatingPointError:
                want = 4.0 * _linear_quantile(xs / 4.0, level)
            assert bits(_linear_quantile(xs, level)) == bits(want)


def float_bits(values):
    return [np.float64(v).tobytes() for v in values]


# small samples, and a few large ones
SIZES = st.one_of(st.integers(1, 300), st.sampled_from([1000, 8193, 20001]))

# the samples whose squares or sums overflow, from the describe and Gaussian fit tests
OVERFLOWING = [[1.0, 2.0, 3.0, 4.0, 1e200], [1e154, -1e154, 3.0, 4.0, 5.0],
               [1e300, 2e300, -3e300, 5.0], [1e308, 1.7e308, 1.7e308, 1.7e308],
               [-1.4e308] * 3 + [-0.4e308] * 2, [1.7e308, 1.7e308, -1e308],
               [-1.7e308, 1e308, 1.7e308, 1.7e308, 2.0],
               [1.7976931348623157e308] * 6 + [-1.7976931348623157e308] * 2 + [0.0],
               [1e154, -1e154] * 2, [-1e308, 0.0, 1e308, 0.0], [1e200, 2e200, 3e200, 4e200],
               [1.7e308, 1e-300, 5.0, 9e307]]
# a sample whose squared deviations underflow: its SD is 1.72e-300, not 0
TINY = [1e-300, 2e-300, 3e-300, 5e-300, 1e-310]


class TestFloatStatistics:
    """``describe`` and ``empirical_risk`` take the mean, SD and variance on
    the sample's floats, at its unit scale, with correctly rounded sums: each
    sum is the exact sum of its float terms, rounded once, at every size;
    and the Gaussian fit takes them the same way."""

    @settings(max_examples=80, deadline=None)
    @given(n=SIZES, seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 300),
           shift=st.floats(-1e6, 1e6))
    @example(n=8193, seed=1, exponent=0, shift=0.0)
    @example(n=20001, seed=2, exponent=150, shift=1e6)
    def test_mean_sd_and_var_are_correctly_rounded_sums(self, n, seed, exponent, shift):
        x = np.random.default_rng(seed).standard_normal(n) * 10.0**exponent + shift
        assume(np.isfinite(x).all())
        values = x.tolist()
        e = unit_exponent(min(values), max(values))
        mean, var = mean_var(values, e)
        assert float_bits([mean, var]) == float_bits(exact_mean_var(values, e))
        stats = describe(LossDataset(values=values, source="inline", name="s"))
        assert float_bits([stats.mean, stats.sd]) == float_bits(
            [math.ldexp(mean, e), math.ldexp(math.sqrt(var), e)])

    @settings(max_examples=60, deadline=None)
    @given(n=SIZES, seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 0.99))
    @example(n=20001, seed=3, alpha=0.5)
    @example(n=300, seed=4, alpha=0.95)
    def test_empirical_tvar_and_tv_are_correctly_rounded_sums(self, n, seed, alpha):
        # VaR keeps np.quantile's bits; TVaR and TV are the exceedances' mean
        # and variance at their unit scale
        x = np.random.default_rng(seed).lognormal(0.0, 1.5, n)
        data = LossDataset(values=x, source="inline", name="s")
        exceed = x[x > np.quantile(x, alpha)].tolist()
        assume(len(exceed) >= 2)
        row = empirical_risk(data, alpha)
        e = unit_exponent(min(exceed), max(exceed))
        mean, var = exact_mean_var(exceed, e)
        assert float_bits([row.var, row.tvar, row.tv]) == float_bits(
            [np.quantile(x, alpha), math.ldexp(mean, e), math.ldexp(var, 2 * e)])

    @pytest.mark.parametrize("values", OVERFLOWING + [TINY])
    def test_rescaled_statistics_are_the_gaussian_fits(self, values):
        # where the squares or a sum overflow, or the squares underflow, both
        # are taken at unit scale.  The oracle is the exact rational mean and
        # population SD (statistics' own sums), correctly rounded: the mean is
        # it and the SD within one ulp of it (as measured, 0 or 1).  And
        # describe's floats and the Gaussian fit's arrays agree bit for bit
        stats = describe(LossDataset(values=values, source="inline", name="w"))
        assert stats.mean == float(statistics.mean(map(Fraction, values)))
        sd = statistics.pstdev(map(Fraction, values))
        assert abs(stats.sd - sd) <= math.ulp(sd)
        if len(values) >= 4:
            fit = fit_gaussian(np.array(values)).params
            assert float_bits([stats.mean, stats.sd]) == float_bits([fit.omega, fit.eta])
