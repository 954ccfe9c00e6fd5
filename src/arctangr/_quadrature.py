"""Thin wrapper around scipy's adaptive quadrature with explicit failure.

scipy.integrate.quad signals trouble through an extra message element in
its full output; we convert that into a :class:`QuadratureError` carrying
the achieved error estimate instead of letting a warning scroll by.  Only
the mixture-derivation oracle uses it, so scipy is imported on first call.
"""

from .errors import QuadratureError


def adaptive_quad(func, a, b, *, epsabs, epsrel, limit=200, label="integral"):
    """Integrate ``func`` over ``(a, b)``; return ``(value, error_estimate)``."""
    from scipy.integrate import quad

    result = quad(func, a, b, full_output=True, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if len(result) > 3:
        value, abserr, _, message = result[0], result[1], result[2], result[3]
        raise QuadratureError(
            f"quadrature for {label} did not converge: {message.strip()} "
            f"(value={value!r}, error estimate={abserr!r})",
            value=value,
            error_estimate=abserr,
        )
    value, abserr = result[0], result[1]
    return value, abserr
