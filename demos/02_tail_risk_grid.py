"""
Tail-risk measures across confidence levels
===========================================

VaR is the closed-form quantile; TVaR and TV come from fixed Gauss quadrature
in probability space.  A seeded Monte Carlo oracle cross-checks both.
"""

import numpy as np

from arctangr import ArctanGRParams, mc_oracle, risk_curve, tv, tvar, var

params = ArctanGRParams(omega=0.02, psi=0.005)

# a grid of eight evenly spaced confidence levels
alphas = np.linspace(0.609, 0.990, 8)
report = risk_curve(params, alphas)
print(report.to_text())

# Every row satisfies TVaR > VaR, and all three measures grow with alpha.
rows = report.rows
assert all(r.tvar > r.var for r in rows)
assert all(b.var > a.var and b.tvar > a.tvar for a, b in zip(rows, rows[1:]))

# Monte Carlo agreement: the quadrature values sit well inside the
# uncertainty of a 10-million-draw simulation.
alpha = 0.95
mc = mc_oracle(params, alpha, n=10**7, seed=11)
print(f"alpha = {alpha}")
print(f"  quadrature: tvar = {tvar(params, alpha):.8f}   tv = {tv(params, alpha):.3e}")
print(f"  monte carlo: tvar = {mc.tvar:.8f} (se {mc.tvar_se:.1e})   "
      f"tv = {mc.tv:.3e} (se {mc.tv_se:.1e})")
print(f"  exceedances: {mc.exceedances} of {mc.n} "
      f"(expected about {(1 - alpha) * mc.n:.0f})")

# Equivariance: shifting the location shifts VaR/TVaR one-for-one;
# scaling psi scales the spread around omega.
shifted = ArctanGRParams(omega=1.02, psi=0.005)
print(f"translation check: {var(shifted, 0.9):.8f} == {var(params, 0.9) + 1.0:.8f}")
doubled = ArctanGRParams(omega=0.02, psi=0.010)
print(f"scale check: {(var(doubled, 0.9) - 0.02) / (var(params, 0.9) - 0.02):.1f}x spread")

# machine-readable exports share one fixed column order
print(report.to_csv().splitlines()[0])
