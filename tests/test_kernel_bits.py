"""The branch-free kernels equal their ``np.where`` forms (``where_kernels``)
bit for bit: on random-sign arrays, at the branch points and their float
neighbours, where ``e^{-|z|}`` underflows, at +-0 and +-inf, and on 0-d
arrays and Python floats.  Every kernel picks its sides by the same exact
float arithmetic at any length, so the short drawn lists reach the choice
as a bulk block does.  The Rayleigh density, CDF and log-density equal
theirs at the edges of the support and of the scale
(``test_rayleigh_bits``), and every Rayleigh function equals its whole-array
form past two chunks and on 1e6 points, on one, two and three CPUs
(``test_rayleigh_bulk_bits``).

Every public bulk function, whose two-sided kernels read ``-|z|`` and z's
side from z's bits and write each block into the output, equals those
forms composed with the plain standardization
``(x - omega) / psi`` (halved from ``|omega| = 2^970`` on) and
``omega + psi * z``, bit for bit: on one point, around a block and past two
chunks, on one, two and three CPUs (``TestFusedStandardization``)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

import where_kernels as ref
from arctangr import (
    P_STAR,
    ArctanGRParams,
    GaussianParams,
    RayleighParams,
    agr_cdf,
    agr_cum_hazard,
    agr_hazard,
    agr_logpdf,
    agr_pdf,
    agr_quantile,
    agr_sample,
    agr_survival,
    arctan_cdf,
    arctan_pdf,
    gaussian_base,
)
from arctangr._arrays import BLOCK, CHUNK
from arctangr.arctanx import FOUR_OVER_PI
from arctangr.distributions import (
    _laplace_cdf,
    _laplace_quantile,
    gaussian_cdf,
    gaussian_logpdf,
    gaussian_pdf,
    gaussian_quantile,
    mixture_kernel_cdf,
    mixture_kernel_logpdf,
    mixture_kernel_pdf,
    mixture_kernel_quantile,
    rayleigh_cdf,
    rayleigh_logpdf,
    rayleigh_pdf,
    rayleigh_quantile,
    _z_cdf,
    _z_cum_hazard,
    _z_hazard,
    _z_log_shape,
    _z_pdf,
    _z_quantile,
    _z_sf,
)
from arctangr._fit_arrays import ArraySearch

Z_KERNELS = {
    "laplace_cdf": (_laplace_cdf, ref.laplace_cdf),
    "cdf": (_z_cdf, ref.z_cdf),
    "sf": (_z_sf, ref.z_sf),
    "pdf": (_z_pdf, ref.z_pdf),
    "cum_hazard": (_z_cum_hazard, ref.z_cum_hazard),
    "hazard": (_z_hazard, ref.z_hazard),
    "log_shape": (_z_log_shape, ref.z_log_shape),
}
P_KERNELS = {
    "laplace_quantile": (_laplace_quantile, ref.laplace_quantile),
    "quantile": (_z_quantile, ref.z_quantile),
}

TINY = 5e-324
# +-0, +-inf, e^{-|z|} under- and overflowing (|z| > 745), the hazard's small
# switches (t, y < 1e-8 near z = 17.7, 18.4) and the survival's cancellation
Z_EDGES = [0.0, -0.0, math.inf, -math.inf, TINY, -TINY, 745.0, -745.0, 745.2, -745.2,
           746.0, -746.0, 1e3, -1e3, 1e308, -1e308, 17.7275, 18.4207, 36.7, -36.7]
P_EDGES = [P_STAR, math.nextafter(P_STAR, 0.0), math.nextafter(P_STAR, 1.0),
           0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
           TINY, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-17,
           math.nextafter(1.0, 0.0), 1.0 - 1e-13]

Z_VALUES = st.one_of(st.floats(allow_nan=False), st.floats(-800.0, 800.0),
                     st.sampled_from(Z_EDGES))
P_VALUES = st.one_of(st.floats(TINY, math.nextafter(1.0, 0.0)), st.sampled_from(P_EDGES))


def assert_same_bits(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def reference(kernel, arg):
    """The ``np.where`` form, whose discarded branch may warn; the new form must not."""
    with np.errstate(all="ignore"):
        return kernel(arg)


def check_all_forms(new, old, values):
    arr = np.array(values, dtype=float)
    assert_same_bits(new(arr.copy()), reference(old, arr))
    for v in values:
        for arg in (float(v), np.float64(v), np.array(v)):
            assert_same_bits(new(arg), reference(old, arg))


@pytest.mark.parametrize("name", Z_KERNELS)
@settings(max_examples=80, deadline=None)
@given(z=st.lists(Z_VALUES, min_size=1, max_size=40))
@example(z=Z_EDGES)
def test_z_kernels_bit_identical(name, z):
    check_all_forms(*Z_KERNELS[name], z)


@pytest.mark.parametrize("name", P_KERNELS)
@settings(max_examples=80, deadline=None)
@given(p=st.lists(P_VALUES, min_size=1, max_size=40))
@example(p=P_EDGES)
def test_p_kernels_bit_identical(name, p):
    check_all_forms(*P_KERNELS[name], p)


@pytest.mark.parametrize("name", [*Z_KERNELS, *P_KERNELS])
def test_bulk_random_signs(name):
    # several blocks' worth, signs drawn at random, in a 2-d layout
    rng = np.random.default_rng(11)
    if name in P_KERNELS:
        new, old = P_KERNELS[name]
        arg = np.maximum(rng.random((3, BLOCK + 5)), TINY)
    else:
        new, old = Z_KERNELS[name]
        arg = rng.standard_normal((3, BLOCK + 5)) * 10.0 ** rng.uniform(-3, 2.9, (3, BLOCK + 5))
    assert_same_bits(new(arg), reference(old, arg))


@pytest.mark.parametrize("shape", [(101,), ()])
def test_kernels_leave_their_input_alone(shape):
    for kernels, lo, hi in ((Z_KERNELS, -5.0, 5.0), (P_KERNELS, 0.01, 0.99)):
        for value in np.linspace(lo, hi, 101):
            arg = np.full(shape, value)
            for new, _ in kernels.values():
                new(arg)
                assert_same_bits(arg, np.full(shape, value))


@settings(max_examples=150, deadline=None)
@given(
    xs=st.lists(st.one_of(st.sampled_from([-3.0, -1e-300, 0.0, 0.0, 2.5, 2.5, 7.0]),
                          st.floats(-1e300, 1e300)), min_size=1, max_size=40),
    at=st.one_of(st.integers(0, 39), st.floats(-1e300, 1e300)),
    psi=st.floats(1e-300, 1e300),
)
@example(xs=[-1e-300, 0.0, 0.0, 1.0], at=1, psi=1e300)  # z = -1e-600 rounds to -0.0
@example(xs=[-1e300, 0.0, 1e300], at=-1e300, psi=1e-300)  # z = +-inf
def test_fit_pass_uw_is_z_uw(xs, at, psi):
    # the fit's numpy score pass on a sorted sample, with omega tied to a sample
    # point or anywhere: it writes u = e^{-|z|} from |x - omega| / psi, and
    # w = u/2 turned into 1 - u/2 on a slice (the points from omega on),
    # where the np.where form selects per element
    xs = np.sort(np.array(xs))
    omega = float(xs[at % xs.size]) if isinstance(at, int) else at
    search = ArraySearch(xs)
    # (u, w) only: the pass's other sums are not finite where z is not
    with np.errstate(all="ignore"):
        z = (xs - omega) / psi
        search.at(omega)
        search.score_pass(psi)
    assert_same_bits((search.u, search.w), ref.z_uw(z))


# every scale from the least double to near the largest; the points off the
# support and on its edge, subnormals, the largest doubles, and points a
# few scales out, where z/psi under- and overflows
RAYLEIGH_SCALES = [TINY, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-10, 1.0, 2.0, 1e10,
                   1e200, 1e300, 1.7e308]
RAYLEIGH_KERNELS = {"pdf": (rayleigh_pdf, ref.rayleigh_pdf),
                    "cdf": (rayleigh_cdf, ref.rayleigh_cdf),
                    "logpdf": (rayleigh_logpdf, ref.rayleigh_logpdf)}


def rayleigh_points(psi):
    x = [0.0, -0.0, math.inf, -math.inf, -1.0, -1e308, -TINY, TINY, 1e-310,
         2.2250738585072014e-308, 1e-300, 1.0, 1e308, 1.7e308]
    with np.errstate(all="ignore"):
        x += [float(np.float64(psi) * k) for k in (TINY, 1e-300, 1e-10, 0.5, 1.0, 3.0, 38.6,
                                                    40.0, 1e10, 1e300)]
    return x


def test_rayleigh_points_reach_each_log():
    # the log-density takes log(z/psi) on some points and log x - 2 log psi
    # on others, below and above [tiny, 2^1023)
    ratios = []
    with np.errstate(all="ignore"):
        for psi in RAYLEIGH_SCALES:
            x = np.array([v for v in rayleigh_points(psi) if 0 < v < math.inf])
            ratios += list(np.minimum(x / psi, psi * ref.RAYLEIGH_CAP) / psi)
    ratios = np.array(ratios)
    assert (ratios < ref.TINY).any() and (ratios >= ref.RAYLEIGH_CAP).any()
    assert ((ratios >= ref.TINY) & (ratios < ref.RAYLEIGH_CAP)).any()


@pytest.mark.parametrize("name", RAYLEIGH_KERNELS)
def test_rayleigh_bits(name):
    new, old = RAYLEIGH_KERNELS[name]
    for psi in RAYLEIGH_SCALES:
        params = RayleighParams(psi)
        x = rayleigh_points(psi)
        want = reference(lambda v: old(psi, v), np.array(x))
        # z = x/psi overflows where it does; no other warning is allowed
        with np.errstate(over="ignore"):
            assert_same_bits(new(params, np.array(x)), want)
            assert_same_bits(new(params, x), want)
            for v, w in zip(x, want):
                for arg in (float(v), np.float64(v), np.array(v)):
                    got = new(params, arg)
                    assert isinstance(got, float)
                    assert_same_bits(got, w)


@pytest.mark.parametrize("name", [*RAYLEIGH_KERNELS, "quantile"])
def test_rayleigh_bulk_bits(set_cpus, name):
    # the Rayleigh functions walk their blocks as the rest do: past two chunks
    # and on 1e6 points, on one, two and three CPUs, each element keeps the
    # bits of the whole-array form; the edges at both ends put the density's
    # and the log-density's fallbacks in some blocks and not in others
    new, old = RAYLEIGH_KERNELS.get(name, (rayleigh_quantile, ref.rayleigh_quantile))
    for psi in (TINY, 1e-310, 1.0, 1e200):
        params = RayleighParams(psi)
        for n in (2 * CHUNK + 3, 10**6):
            if name == "quantile":
                arg = fused_p(n)
            else:
                rng = np.random.default_rng(n)
                arg = psi * rng.rayleigh(1.0, n) * rng.choice([-1.0, 1e-3, 1.0, 10.0], n)
                e = np.array(rayleigh_points(psi))
                arg[:e.size] = e
                arg[-e.size:] = e
            want = reference(lambda v: old(psi, v), arg)
            for cpus in (1, 2, 3):
                set_cpus(cpus)
                with np.errstate(over="ignore"):  # z = x/psi overflows where it does
                    assert_same_bits(new(params, arg), want)


def plain_z(omega, scale, x):
    """``(x - omega) / scale``, and ``((x/2 - omega/2) / scale) * 2`` from
    ``|omega| = 2^970`` on: the standardization every kernel is composed with."""
    with np.errstate(all="ignore"):
        if abs(omega) >= 2.0**970:
            return (x * 0.5 - omega * 0.5) / scale * 2.0
        return (x - omega) / scale


def plain_x(omega, scale, z):
    with np.errstate(all="ignore"):
        return z * scale + omega


def _normal_pdf(z, eta):
    return np.exp(-0.5 * z * z) / (eta * math.sqrt(2 * math.pi))


def _arctan_base_cdf(omega, eta, x):
    h = np.where(np.isfinite(x), ndtr(plain_z(omega, eta, np.where(np.isfinite(x), x, 0.0))),
                 np.where(x > 0, 1.0, 0.0))
    return FOUR_OVER_PI * np.arctan(h)


def _laplace_log_c(psi):
    return math.log(2.0 * psi) if 2.0 * psi < math.inf else math.log(2.0) + math.log(psi)


# name: (function, params type, reference in (omega, scale, x), finite x only)
FUSED_X = {
    "agr_cdf": (agr_cdf, ArctanGRParams, lambda o, s, x: ref.z_cdf(plain_z(o, s, x)), False),
    "agr_survival": (agr_survival, ArctanGRParams,
                     lambda o, s, x: ref.z_sf(plain_z(o, s, x)), False),
    "agr_pdf": (agr_pdf, ArctanGRParams, lambda o, s, x: ref.z_pdf(plain_z(o, s, x)) / s, False),
    "agr_logpdf": (agr_logpdf, ArctanGRParams,
                   lambda o, s, x: (math.log(2.0 / math.pi) - math.log(s))
                   + ref.z_log_shape(plain_z(o, s, x)), True),
    "agr_hazard": (agr_hazard, ArctanGRParams,
                   lambda o, s, x: ref.z_hazard(plain_z(o, s, x)) / s, False),
    "agr_cum_hazard": (agr_cum_hazard, ArctanGRParams,
                       lambda o, s, x: ref.z_cum_hazard(plain_z(o, s, x)), False),
    "mixture_kernel_pdf": (mixture_kernel_pdf, ArctanGRParams,
                           lambda o, s, x: ref.half_exp(plain_z(o, s, x)) / s, False),
    "mixture_kernel_cdf": (mixture_kernel_cdf, ArctanGRParams,
                           lambda o, s, x: ref.laplace_cdf(plain_z(o, s, x)), False),
    "mixture_kernel_logpdf": (mixture_kernel_logpdf, ArctanGRParams,
                              lambda o, s, x: -np.abs(plain_z(o, s, x)) - _laplace_log_c(s),
                              False),
    "gaussian_pdf": (gaussian_pdf, GaussianParams,
                     lambda o, s, x: _normal_pdf(plain_z(o, s, x), s), False),
    "gaussian_cdf": (gaussian_cdf, GaussianParams, lambda o, s, x: ndtr(plain_z(o, s, x)), False),
    "gaussian_logpdf": (gaussian_logpdf, GaussianParams,
                        lambda o, s, x: -0.5 * plain_z(o, s, x) * plain_z(o, s, x) - math.log(s)
                        - 0.5 * math.log(2 * math.pi), False),
    "arctan_cdf": (lambda g, x: arctan_cdf(gaussian_base(g), x), GaussianParams,
                   _arctan_base_cdf, False),
    "arctan_pdf": (lambda g, x: arctan_pdf(gaussian_base(g), x), GaussianParams,
                   lambda o, s, x: FOUR_OVER_PI * _normal_pdf(plain_z(o, s, x), s)
                   / (1.0 + ndtr(plain_z(o, s, x)) * ndtr(plain_z(o, s, x))), True),
}


FUSED_P = {
    "agr_quantile": (agr_quantile, ArctanGRParams, ref.z_quantile),
    "mixture_kernel_quantile": (mixture_kernel_quantile, ArctanGRParams, ref.laplace_quantile),
    "gaussian_quantile": (gaussian_quantile, GaussianParams, ndtri),
}

W970 = 2.0**970
# (omega, scale): where x = omega -+ 5e-324 makes z underflow to -+0 (psi =
# 1e300, and psi = 3 beside a subnormal omega), a subnormal location, the
# neighbours of 2^970 on both signs, and a location whose x - omega
# overflows
FUSED_PARAMS = [(0.02, 0.005), (0.0, 1e300), (1e-310, 1e300), (3 * TINY, 3.0), (-0.0, 2.0),
                (1e15, 1e-3), (W970, 1e300), (-W970, 3.0), (math.nextafter(W970, 0.0), 1e300),
                (-math.nextafter(W970, 0.0), 1e300), (math.nextafter(W970, math.inf), 2.0),
                (-1.7e308, 1e300)]
FUSED_SIZES = [1, BLOCK - 1, BLOCK + 1, 2 * CHUNK + 3]
MAX = np.finfo(float).max


def fused_edges(omega, scale):
    """+-0, +-inf, the largest doubles, omega and its float neighbours,
    omega -+ 5e-324 and points a few scales away on both sides."""
    e = [0.0, -0.0, math.inf, -math.inf, 1.7e308, -1.7e308, MAX, -MAX, TINY, -TINY,
         omega, math.nextafter(omega, math.inf), math.nextafter(omega, -math.inf),
         omega + TINY, omega - TINY]
    for k in (1e-30, 0.5, 17.7275, 745.2):
        e += [omega + scale * k, omega - scale * k]
    return [v for v in e if not math.isnan(v)]


def fused_input(omega, scale, n, finite):
    """``n`` points: the edges first, the rest spread over z in +-800."""
    rng = np.random.default_rng(n)
    with np.errstate(all="ignore"):
        x = omega + scale * (rng.uniform(-800.0, 800.0, n) * rng.choice([1e-3, 1.0], n))
    e = np.array(fused_edges(omega, scale))
    e = e[:n]
    x[:e.size] = e
    x[-e.size:] = e
    x[~np.isfinite(x) if finite else np.isnan(x)] = omega
    return x


def fused_p(n):
    rng = np.random.default_rng(n + 1)
    p = np.maximum(rng.random(n), TINY)
    e = np.array(P_EDGES[:n])
    p[:e.size] = e
    p[-e.size:] = e
    return p


class TestFusedStandardization:
    """Each public bulk function against ``where_kernels`` on the plain
    standardization, at every size on one, two and three CPUs, and on each
    edge as a Python float."""

    @pytest.mark.parametrize("name", FUSED_X)
    def test_x_side(self, set_cpus, name):
        fn, kind, want, finite = FUSED_X[name]
        for omega, scale in FUSED_PARAMS:
            params = kind(omega, scale)
            for n in FUSED_SIZES:
                x = fused_input(omega, scale, n, finite)
                with np.errstate(all="ignore"):
                    expected = np.asarray(want(omega, scale, x), dtype=float)
                for cpus in (1, 2, 3):
                    set_cpus(cpus)
                    with np.errstate(all="ignore"):  # z overflows where it did
                        assert_same_bits(fn(params, x), expected)
            for v in fused_edges(omega, scale):
                if finite and not math.isfinite(v):
                    continue
                with np.errstate(all="ignore"):
                    assert_same_bits(fn(params, v), float(want(omega, scale, np.float64(v))))

    @pytest.mark.parametrize("name", FUSED_P)
    def test_p_side(self, set_cpus, name):
        fn, kind, kernel = FUSED_P[name]
        for omega, scale in FUSED_PARAMS:
            params = kind(omega, scale)
            for n in FUSED_SIZES:
                p = fused_p(n)
                with np.errstate(all="ignore"):
                    expected = plain_x(omega, scale, kernel(p))
                for cpus in (1, 2, 3):
                    set_cpus(cpus)
                    with np.errstate(all="ignore"):
                        assert_same_bits(fn(params, p), expected)
            for v in P_EDGES:
                with np.errstate(all="ignore"):
                    want = float(plain_x(omega, scale, kernel(np.float64(v))))
                    assert_same_bits(fn(params, v), want)

    def test_sample(self, set_cpus):
        for omega, scale in FUSED_PARAMS:
            params = ArctanGRParams(omega, scale)
            for n in FUSED_SIZES:
                u = np.maximum(np.random.default_rng(n).random(n), np.finfo(float).tiny)
                with np.errstate(all="ignore"):
                    expected = plain_x(omega, scale, ref.z_quantile(u))
                for cpus in (1, 2, 3):
                    set_cpus(cpus)
                    with np.errstate(all="ignore"):
                        assert_same_bits(agr_sample(params, n, seed=n), expected)
