"""The fits' numpy path, for samples of more than ``fit.FLOAT_FIT_MAX`` points.

:func:`arctangr.fit._path` imports this module on the first fit of a larger
sample (``fit.py`` imports it at once where numpy is loaded already), so a
command that fits a smaller sample never imports numpy.  It holds the
functions of ``fit._FLOATS`` on ndarrays: the baselines' sums (numpy's
pairwise sums, within a few ulps of the float path's correctly rounded
ones), the log-likelihoods from the array kernels of
:mod:`arctangr.distributions`, and the AGR search with the numpy score
pass, which writes one preallocated workspace in place.
"""

import functools
import math

import numpy as np

from .distributions import (
    _z_log_shape,
    agr_logpdf,
    gaussian_logpdf,
    mixture_kernel_logpdf,
    rayleigh_logpdf,
)
from .fit import _SWEEP_N, _AgrSearch

_LOGPDF = {"agr": agr_logpdf, "gaussian": gaussian_logpdf, "rayleigh": rayleigh_logpdf,
           "laplace": mixture_kernel_logpdf}


def scaled(x, unit):
    return x * unit


def mean_var(y):
    return float(y.mean()), float(y.var())


def square_sum(y):
    return float(np.sum(y * y))


def abs_dev_sum(y, c):
    return float(np.sum(np.abs(y - c)))


def loglik(name, params, y):
    return float(np.sum(_LOGPDF[name](params, y)))


class _Pass:
    """One score pass at ``psi`` on the workspace of an :class:`ArraySearch`
    that :meth:`ArraySearch.at` has pointed at omega: the sums of
    :class:`arctangr.fit._FloatPass`, on arrays.  The pass writes ``z``,
    ``u``, ``w``, ``q``, ``r = w (u/q)``, ``G = u (u/q)``, ``z r`` and
    ``z G`` into the workspace and takes the two sums that the psi step
    reads; every other sum is read from the workspace on first use, so a
    pass is valid until the next one.  Sums other than those named
    ``l1``/``l2`` are named by their factors, with ``a = |z|`` and ``s``:
    ``a_zr`` is ``sum |z| z r``.
    """

    def __init__(self, ws, psi):
        z, u, w, q, r, g, zr, zg = ws.z, ws.u, ws.w, ws.q, ws.r, ws.g, ws.zr, ws.zg
        self.ws = ws
        self.psi = psi
        np.divide(ws.d, psi, out=z)
        np.divide(ws.a, -psi, out=u)
        np.exp(u, out=u)
        np.multiply(u, 0.5, out=w)
        right = w[ws.below:]
        np.subtract(1.0, right, out=right)
        np.multiply(w, w, out=q)
        q += 1.0
        np.divide(u, q, out=g)
        np.multiply(w, g, out=r)
        g *= u
        np.multiply(z, r, out=zr)
        np.multiply(z, g, out=zg)
        # pairwise sums where rounding matters (the score and the slopes);
        # np.dot for the curvatures, which only shape steps
        self.zr_zr = float(np.dot(zr, zr))
        self.a_zr = float(np.dot(ws.a, zr)) / psi
        self.zl1 = -ws.a_sum / psi - float(zr.sum())
        self.z2l2 = self.zr_zr + self.a_zr - 0.5 * float(np.dot(zg, z))

    @functools.cached_property
    def row_sums(self):
        """``(sum G, sum z G, sum z, sum r)``: one reduction over four rows of
        the workspace, each row's sum pairwise as ``ndarray.sum`` takes it."""
        return self.ws.summed.sum(axis=1).tolist()

    @functools.cached_property
    def r_sum(self):
        return self.row_sums[3]

    @functools.cached_property
    def sr_sum(self):
        return self.r_sum - 2.0 * float(self.ws.r[:self.ws.below].sum())

    @functools.cached_property
    def r_r(self):
        return float(np.dot(self.ws.r, self.ws.r))

    @functools.cached_property
    def a_r(self):
        return float(np.dot(self.ws.a, self.ws.r)) / self.psi

    @functools.cached_property
    def zr_r(self):
        return float(np.dot(self.ws.zr, self.ws.r))

    @functools.cached_property
    def l1(self):
        return 2.0 * self.ws.below - self.ws.n - self.r_sum

    @functools.cached_property
    def zl2(self):
        return self.zr_r + self.a_r - 0.5 * self.row_sums[1]

    @functools.cached_property
    def l2(self):
        return self.r_r + self.sr_sum - 0.5 * self.row_sums[0]

    @functools.cached_property
    def l11(self):
        return self.ws.n + 2.0 * self.sr_sum + self.r_r

    @functools.cached_property
    def zl11(self):
        return self.row_sums[2] + 2.0 * self.a_r + self.zr_r

    @functools.cached_property
    def z2l11(self):
        return float(np.dot(self.ws.z, self.ws.z)) + 2.0 * self.a_zr + self.zr_zr


class ArraySearch(_AgrSearch):
    """The AGR search of :class:`arctangr.fit._AgrSearch` on a sorted ndarray:
    its score passes (:class:`_Pass`) all write one workspace of ``n``-arrays,
    allocated here."""

    Pass = _Pass

    def __init__(self, xs):
        super().__init__(xs)
        ws = np.empty((10, self.n))
        self.d, self.a, self.u, self.w, self.q, self.zr, self.g, self.zg, self.z, self.r = ws
        self.summed = ws[6:]  # G, z G, z, r: the rows summed together

    def at(self, omega):
        """Point the workspace at ``omega``: ``below`` points lie left of it and
        ``m`` at it, ``d = x - omega``, and ``a = |d|``, with its sum."""
        xs = self.xs
        self.below = int(xs.searchsorted(omega, "left"))
        self.m = int(xs.searchsorted(omega, "right")) - self.below
        np.subtract(xs, omega, out=self.d)
        np.abs(self.d, out=self.a)
        self.a_sum = float(self.a.sum())

    def few_values(self):
        xs = self.xs
        new = xs[1:] != xs[:-1]
        return xs[np.r_[True, new]].tolist() if np.count_nonzero(new) < _SWEEP_N else []

    def loglik(self, p):
        return float(_z_log_shape((self.xs - p.omega) / math.exp(p.t)).sum()) - self.n * p.t


search = ArraySearch
