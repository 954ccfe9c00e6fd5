"""Test oracle for the AGR fit's score pass: the log-shape's derivatives as
whole arrays, and the per-observation terms of every sum a pass takes.

``test_distributions`` checks ``z_shape_derivs`` against a 40-digit mpmath
reference.
"""

import numpy as np

from where_kernels import z_uw


def z_shape_derivs(u, w, sign):
    """``(L'(z), L''(z))`` from ``(u, w) = z_uw(z)``, on the side ``sign`` (+1 or
    -1, scalar or per element) of 0, where ``sign * |z| = z``.

    With ``q = 1 + w^2`` and ``r = w u / q``: ``L' = -sign - r`` and
    ``L'' = r (r + sign) - u^2 / (2 q)``.  At a data point (``z = 0``) the
    one-sided values are ``L'(0-) = 0.6``, ``L'(0+) = -1.4``, ``L''(0-) = -0.64``
    and ``L''(0+) = 0.16``.
    """
    q = 1.0 + w * w
    r = w * u / q
    return -sign - r, r * (r + sign) - 0.5 * u * u / q


def pass_terms(xs, omega, psi):
    """``z`` and, by the fit's names, the terms of each sum of a score pass at
    ``(omega, psi)`` on the sorted sample ``xs``; points at omega count on
    the right (``z = 0+``)."""
    z = (xs - omega) / psi
    sign = np.ones(xs.size)
    sign[: int(np.searchsorted(xs, omega, "left"))] = -1.0
    l1, l2 = z_shape_derivs(*z_uw(z), sign)
    zl1 = z * l1
    return z, {"l1": l1, "zl1": zl1, "l2": l2, "zl2": z * l2, "z2l2": z * (z * l2),
               "l11": l1 * l1, "zl11": zl1 * l1, "z2l11": zl1 * zl1}
