"""The seeded bulk ops as plain serial loops on one thread: the reference that
``mc_oracle`` and ``agr_sample`` must equal bit for bit on any number of
CPUs, and the generator state they must leave behind."""

import math

import numpy as np

from arctangr import P_STAR, MCOracleResult, var
from arctangr.distributions import _DRAW_BLOCK, _from_z, _z_quantile, _z_tail_quantile
from arctangr.tail import ArctanGRParams


def sample(params, n, rng):
    """``agr_sample(params, n, rng)``: ``n`` uniforms in one draw, mapped whole."""
    u = rng.random(n)
    return _from_z(params.omega, params.psi, _z_quantile(np.maximum(u, np.finfo(float).tiny)))


def mc_oracle(params, alpha, n, rng):
    """``mc_oracle(params, alpha, n, rng)``: the binomial count, then its tail
    draws ``_DRAW_BLOCK`` at a time into one buffer, each block's sums added
    to the totals as it is drawn."""
    s = max(0, math.frexp(params.psi)[1])
    unit = ArctanGRParams(math.ldexp(params.omega, -s), math.ldexp(params.psi, -s))
    threshold = math.ldexp(var(params, alpha), -s)
    tail = 1.0 - alpha
    k = int(rng.binomial(n, tail))
    m = 0
    s1 = s2 = s3 = s4 = 0.0
    for j in range(0, k, _DRAW_BLOCK):
        q = rng.random(min(_DRAW_BLOCK, k - j))
        q = tail * (1.0 - q)
        z = _z_tail_quantile(q) if alpha >= P_STAR else _z_quantile(1.0 - q)
        x = _from_z(unit.omega, unit.psi, z)
        y = x[x > threshold] - threshold
        m += y.size
        s1 += y.sum()
        s2 += (y * y).sum()
        s3 += (y * y * y).sum()
        s4 += (y * y * (y * y)).sum()
    mean = s1 / m
    m2 = s2 / m - mean**2
    m4 = s4 / m - 4.0 * mean * s3 / m + 6.0 * mean**2 * s2 / m - 3.0 * mean**4
    return MCOracleResult(math.ldexp(threshold + mean, s), math.ldexp(m2, 2 * s),
                          math.ldexp(math.sqrt(max(m2, 0.0) / m), s),
                          math.ldexp(math.sqrt(max(m4 - m2 * m2, 0.0) / m), 2 * s), m, n)
