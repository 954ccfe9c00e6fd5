"""Generic arctangent distribution transform.

Composing ``(4/pi) * arctan`` with any base CDF ``H`` yields a new
distribution on the same support:

    CDF:  (4/pi) * arctan(H(x))
    PDF:  (4/pi) * h(x) / (1 + H(x)^2)

Because ``1 + H^2`` stays in ``[1, 2]``, the transform rescales any base
density by a factor bounded in ``[2/pi, 4/pi]``; mass is pushed from the
upper-CDF region toward the lower one, which is what produces the heavier
upper tail relative to the base.

The transform is exposed generically so that Gaussian, Rayleigh, Laplace,
or any other base can be wrapped without duplicating code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._arrays import as_float_array, blockwise, match_input
from .errors import DomainError
from .tail import FOUR_OVER_PI


@dataclass(frozen=True)
class BaseDistribution:
    """A CDF/PDF pair plus support, as consumed by the arctan transform.

    ``cdf`` and ``pdf`` must accept float ndarrays of finite arguments and
    evaluate elementwise; the transform calls them on blocks of its input.
    ``support`` is the interval carrying the mass, bounds possibly infinite;
    it is validated as a nonempty interval, and callers read it for
    integration bounds.  The transform itself never reads it: ``arctan_cdf``
    maps +-inf to 0/1 directly, and finite ``x`` go to ``cdf``.
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise DomainError(f"support must be a nonempty interval, got {self.support}")


def arctan_cdf(base: BaseDistribution, x):
    """CDF of the arctan-transformed distribution: ``(4/pi) * arctan(H(x))``.

    Accepts scalars or arrays; ``+-inf`` arguments map to the 1/0 limits
    directly rather than being passed to the base CDF.  A block with no
    infinity goes to the base CDF whole; ``cdf`` is elementwise, so its
    values, and the result's bits, are those of the masked route.
    """

    def block(v):
        finite = np.isfinite(v)
        if finite.all():
            h = np.asarray(base.cdf(v), dtype=float)
        else:
            h = np.empty(v.shape, dtype=float)
            if finite.any():
                h[finite] = base.cdf(v[finite])
            h[v == -np.inf] = 0.0
            h[v == np.inf] = 1.0
        return FOUR_OVER_PI * np.arctan(h)

    # an ndarray, 0-d for one number: the base callables are given arrays
    arr = np.asarray(as_float_array(x))
    return match_input(x, blockwise(block, arr))


def arctan_pdf(base: BaseDistribution, x):
    """Density of the arctan-transformed distribution.

    ``(4/pi) * h(x) / (1 + H(x)^2)``; requires finite ``x`` because the
    base callables are only guaranteed on finite arguments.
    """

    def block(v):
        h = np.asarray(base.pdf(v), dtype=float)
        cap_h = np.asarray(base.cdf(v), dtype=float)
        return FOUR_OVER_PI * h / (1.0 + cap_h * cap_h)

    arr = np.asarray(as_float_array(x, require_finite=True))
    return match_input(x, blockwise(block, arr))
