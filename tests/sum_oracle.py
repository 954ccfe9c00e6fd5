"""Test oracle for the float sums: the exact rational sum of the same float
terms, rounded once, which a correctly rounded sum (``math.fsum``) equals."""

import math
from fractions import Fraction


def exact_sum(terms):
    return float(sum(map(Fraction, terms)))


def exact_mean_var(values, e):
    """The oracle of :func:`arctangr._util.mean_var`: ``values`` times
    ``2^-e``, and each of its two sums taken by :func:`exact_sum`."""
    y = [math.ldexp(v, -e) for v in values]
    mean = exact_sum(y) / len(y)
    return mean, exact_sum([(v - mean) * (v - mean) for v in y]) / len(y)
