"""
The arctan transform on arbitrary base distributions
====================================================

(4/pi)*arctan composed with any base CDF yields a valid distribution on the
same support.  The library's main model is this transform applied to the
Laplace kernel, but nothing stops you from wrapping other bases -- or your
own.
"""

import math

import numpy as np
from scipy.integrate import quad

from arctangr import (
    ArctanGRParams,
    BaseDistribution,
    GaussianParams,
    RayleighParams,
    agr_cdf,
    arctan_cdf,
    arctan_pdf,
    gaussian_base,
    mixture_kernel_base,
    rayleigh_base,
)

bases = {
    "gaussian": gaussian_base(GaussianParams(omega=0.0, eta=1.0)),
    "rayleigh": rayleigh_base(RayleighParams(psi=2.0)),
    "laplace kernel": mixture_kernel_base(ArctanGRParams(omega=0.0, psi=1.0)),
}

# Each transformed density still integrates to one, and the transform can
# only rescale the base density by a factor between 2/pi and 4/pi.
for name, base in bases.items():
    lo = max(base.support[0], -40.0)
    hi = min(base.support[1], 40.0)
    total, _ = quad(lambda x: arctan_pdf(base, x), lo, hi, limit=200)
    # ratio checked where the base density hasn't underflowed
    x = np.linspace(max(lo, -6.0) + 1e-3, 6.0, 200)
    ratio = arctan_pdf(base, x) / base.pdf(x)
    print(f"{name:>15}: integral = {total:.12f}, "
          f"density ratio in [{ratio.min():.4f}, {ratio.max():.4f}] "
          f"(bounds {2/np.pi:.4f}, {4/np.pi:.4f})")

# The transform damps the region where the base CDF is large, so mass
# shifts downward: the transformed median sits below the base median.
gauss = bases["gaussian"]
grid = np.linspace(-4, 4, 2001)
cdf_vals = arctan_cdf(gauss, grid)
median = grid[int(np.searchsorted(cdf_vals, 0.5))]
print(f"\ntransformed-gaussian median ~ {median:+.3f} (base median 0)")

# Applying the transform to the Laplace kernel reproduces the packaged
# model exactly.
params = ArctanGRParams(omega=0.5, psi=1.5)
kernel = mixture_kernel_base(params)
x = np.linspace(-6, 8, 9)
print("\ngeneric transform vs packaged closed form:")
print(np.abs(arctan_cdf(kernel, x) - agr_cdf(params, x)).max())

# And the kernel itself really is the Gaussian-Rayleigh scale mixture:
# integrating the mixture definition numerically lands on the closed form.
# With d = (x - omega)/psi, a Gaussian of scale psi*s weighted by the
# Rayleigh density of s integrates to the Laplace density at x; the range
# is split at the integrand's saddle so quad cannot miss the mass.
d = (1.7 - params.omega) / params.psi
split = max(1.0, math.sqrt(abs(d)))
val = sum(
    quad(lambda s: math.exp(-d * d / (2 * s * s) - s * s / 2) if s > 0 else 0.0,
         a, b, epsabs=1e-14, epsrel=1e-11, limit=200)[0]
    for a, b in ((0.0, split), (split, np.inf))
) / (params.psi * math.sqrt(2 * math.pi))
print(f"mixture integral at x=1.7: {val:.12f}")

# Wrapping a custom base takes one dataclass.
custom = BaseDistribution(
    cdf=lambda x: np.clip(x, 0.0, 1.0),          # uniform on [0, 1]
    pdf=lambda x: ((x >= 0) & (x <= 1)).astype(float),
    support=(0.0, 1.0),
)
total, _ = quad(lambda x: arctan_pdf(custom, x), 0.0, 1.0)
print(f"arctan-uniform integrates to {total:.12f}")
