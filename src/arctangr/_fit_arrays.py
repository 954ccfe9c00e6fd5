"""The fits' numpy path, for samples of more than ``fit.FLOAT_FIT_MAX`` points.

:func:`arctangr.fit._path` imports this module on the first fit of a larger
sample (``fit.py`` imports it at once where numpy is loaded already), so a
command that fits a smaller sample never imports numpy.  It holds the
functions of ``fit._FLOATS`` on the sorted ndarray: the baselines' sums
(numpy's pairwise sums, in sorted order, within a few ulps of the float
path's correctly rounded ones), the log-likelihoods from the array kernels of
:mod:`arctangr.distributions`, and the AGR search with the numpy score
pass, which writes one preallocated workspace in place and takes all of a
pass's raw sums from it at once: each pass is a
:class:`arctangr.fit._ScorePass`, whose eight sums no later pass changes.
"""

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


class ArraySearch(_AgrSearch):
    """The AGR search of :class:`arctangr.fit._AgrSearch` on a sorted ndarray:
    its score passes all write one workspace of ``n``-arrays, allocated here."""

    def __init__(self, xs):
        super().__init__(xs)
        ws = np.empty((10, self.n))
        self.d, self.a, self.u, self.w, self.q, self.zr, self.g, self.zg, self.z, self.r = ws
        self.summed = ws[5:]  # z r, G, z G, z, r: the rows summed together

    def at(self, omega):
        """Point the workspace at ``omega``: ``below`` points lie left of it and
        ``m`` at it, ``d = x - omega``, and ``a = |d|``, with its sum."""
        xs = self.xs
        self.below = int(xs.searchsorted(omega, "left"))
        self.m = int(xs.searchsorted(omega, "right")) - self.below
        np.subtract(xs, omega, out=self.d)
        np.abs(self.d, out=self.a)
        self.a_sum = float(self.a.sum())

    def sums(self, psi):
        """The raw sums of :class:`arctangr.fit._ScorePass` at ``psi``, on the
        workspace.  The pass writes ``z``, ``u``, ``w``, ``q``, ``r = w (u/q)``,
        ``G = u (u/q)``, ``z r`` and ``z G`` in place; the sums that the score
        and the slopes read are pairwise, five of them in one reduction over
        the rows of ``summed``, and the curvatures' are ``np.dot``."""
        d, a, z, u, w, q, r, g, zr, zg = (self.d, self.a, self.z, self.u, self.w, self.q,
                                          self.r, self.g, self.zr, self.zg)
        np.divide(d, psi, out=z)
        np.divide(a, -psi, out=u)
        np.exp(u, out=u)
        np.multiply(u, 0.5, out=w)
        right = w[self.below:]
        np.subtract(1.0, right, out=right)
        np.multiply(w, w, out=q)
        q += 1.0
        np.divide(u, q, out=g)
        np.multiply(w, g, out=r)
        g *= u
        np.multiply(z, r, out=zr)
        np.multiply(z, g, out=zg)
        zr_sum, g_sum, zg_sum, z_sum, r_sum = self.summed.sum(axis=1).tolist()
        return (r_sum, r_sum - 2.0 * float(r[:self.below].sum()), zr_sum,
                float(np.dot(a, r)) / psi, float(np.dot(a, zr)) / psi, float(np.dot(zr, zr)),
                float(np.dot(zg, z)), g_sum, zg_sum, float(np.dot(r, r)), float(np.dot(zr, r)),
                float(np.dot(z, z)), z_sum)

    def few_values(self):
        xs = self.xs
        new = xs[1:] != xs[:-1]
        return xs[np.r_[True, new]].tolist() if np.count_nonzero(new) < _SWEEP_N else []

    def loglik(self, p):
        return float(_z_log_shape((self.xs - p.omega) / math.exp(p.t)).sum()) - self.n * p.t


search = ArraySearch
