"""Test oracle: the Gaussian-Rayleigh scale-mixture density by quadrature."""

import math

import numpy as np
from scipy.integrate import quad


def mixture_kernel_pdf_by_integration(params, x):
    """Evaluate the scale-mixture density by direct numeric integration.

    Integrates the conditional Gaussian density against the Rayleigh weight
    over all scales, i.e. the definition of the mixture, without using the
    closed form :func:`arctangr.mixture_kernel_pdf`.  The integration
    variable is rescaled by ``psi`` and the range is split at the
    integrand's saddle so adaptive quadrature cannot miss the mass; a
    warning message from ``quad`` fails the call.
    """
    if np.ndim(x) > 0:
        return np.array([mixture_kernel_pdf_by_integration(params, float(v)) for v in x])

    d = (float(x) - params.omega) / params.psi
    dd = d * d

    def integrand(s):
        return math.exp(-dd / (2.0 * s * s) - 0.5 * s * s) if s > 0 else 0.0

    split = max(1.0, math.sqrt(abs(d)))
    total = 0.0
    for a, b in ((0.0, split), (split, np.inf)):
        result = quad(integrand, a, b, full_output=True, epsabs=1e-14, epsrel=1e-11, limit=200)
        assert len(result) == 3, f"quadrature at x={x!r} did not converge: {result[3].strip()}"
        total += result[0]
    return total / (params.psi * math.sqrt(2.0 * math.pi))
