"""Seeded inputs for every workload, made with numpy alone.

Each workload draws from its own PCG64 stream, ``SeedSequence([seed,
stream])``, so the same ``--seed`` always gives the same inputs and one
workload's draws never shift another's.  AGR data come from the benchmark's
own closed-form quantile (:func:`oracle.z_quantile`) applied to uniforms,
not from the program's sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import z_quantile

KERNEL_POINTS = 1_000_000
MC_DRAWS = 10_000_000
#: Location/scale ratios of the tail ladder.  The ratios of 1e6 and more hit
#: the known tail-variance cancellation at the parent commit.
TAIL_RATIOS = (0.0, 4.0, 1e3, -1e3, 1e6, -1e6, 1e8)
#: log10 bands of the tail ladder's scale psi.
PSI_BANDS = ((-3.0, -1.0), (-1.0, 1.0), (1.0, 3.0))
#: The plot bundle's 45-level grid and the CLI's default 6 levels.
CURVE45 = tuple(np.linspace(0.55, 0.99, 45).round(12))
CURVE6 = (0.75, 0.80, 0.85, 0.90, 0.95, 0.99)
FIT_SAMPLE = 3_000
#: Several samples per shape, so a run's median fit time does not hang on
#: how many iterations one drawn dataset happens to need.
FIT_SAMPLES_PER_SHAPE = 3
CLI_SAMPLE = 500
EMPIRICAL_ALPHAS = (0.75, 0.9, 0.95)
README_ALPHAS = (0.609, 0.75, 0.9, 0.99)
#: The program's embedded ``embedded:insurance`` sample (n = 58), kept here
#: so the oracles do not read it from the program.
INSURANCE = (
    0.052, 0.033, 0.039, 0.050, 0.029, 0.052, 0.060, 0.032, 0.057, 0.064,
    0.061, 0.064, 0.041, 0.036, 0.050, 0.053, 0.061, 0.068, 0.060, 0.050,
    0.064, 0.057, 0.061, 0.059, 0.069, 0.070, 0.137, 0.170, 0.100, 0.090,
    0.222, 0.109, 0.068, 0.063, 0.056, 0.090, 0.074, 0.095, 0.114, 0.133,
    0.066, 0.075, 0.072, 0.054, 0.057, 0.052, 0.066, 0.069, 0.083, 0.044,
    0.060, 0.080, 0.058, 0.080, 0.080, 0.052, 0.065, 0.073,
)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def uniforms(gen, n):
    """Uniforms in (0, 1): ``random()`` can return exactly 0."""
    return np.maximum(gen.random(n), np.finfo(float).tiny)


def agr_draws(gen, omega, psi, n):
    return omega + psi * z_quantile(uniforms(gen, n))


@dataclass(frozen=True)
class KernelInputs:
    omega: float
    psi: float
    x: np.ndarray          # AGR draws, for cdf / pdf / logpdf
    p: np.ndarray          # probabilities, for quantile
    sample_seed: int
    gauss_mu: float
    gauss_sigma: float
    gauss_x: np.ndarray    # points for the Gaussian-base arctan cdf
    mc_alpha: float
    mc_seed: int


def kernel_inputs(seed: int, n: int = KERNEL_POINTS) -> KernelInputs:
    g = rng(seed, 1)
    omega = float(g.uniform(-1, 1))
    psi = float(10 ** g.uniform(-2, 1))
    mu = float(g.uniform(-1, 1))
    sigma = float(10 ** g.uniform(-1, 1))
    return KernelInputs(
        omega=omega,
        psi=psi,
        x=agr_draws(g, omega, psi, n),
        p=uniforms(g, n),
        sample_seed=int(g.integers(2**31)),
        gauss_mu=mu,
        gauss_sigma=sigma,
        gauss_x=mu + 3 * sigma * g.standard_normal(n),
        mc_alpha=float(g.choice([0.9, 0.95, 0.99])),
        mc_seed=int(g.integers(2**31)),
    )


def tail_ladder(seed: int) -> list[tuple[float, float, float]]:
    """``(ratio, omega, psi)`` for each ratio in :data:`TAIL_RATIOS` and each
    band of :data:`PSI_BANDS`: psi is log-uniform within the band, so every
    run spans six decades of scale while the seed moves psi only inside a
    band (the quadrature's work depends on the scale through its absolute
    error floor)."""
    g = rng(seed, 2)
    out = []
    for ratio in TAIL_RATIOS:
        for lo, hi in PSI_BANDS:
            psi = float(10 ** g.uniform(lo, hi))
            out.append((ratio, ratio * psi, psi))
    return out


def fit_samples(seed: int, n: int = FIT_SAMPLE, per_shape: int = FIT_SAMPLES_PER_SHAPE
                ) -> dict[str, list[np.ndarray]]:
    """Per shape, ``per_shape`` samples, each with its own drawn parameters:
    AGR, lognormal, and a two-normal mixture."""
    g = rng(seed, 3)
    out: dict[str, list[np.ndarray]] = {"agr": [], "lognormal": [], "mixture": []}
    for _ in range(per_shape):
        omega = float(g.uniform(0.5, 2.0))
        out["agr"].append(agr_draws(g, omega, omega * float(g.uniform(0.02, 0.05)), n))
        out["lognormal"].append(g.lognormal(g.uniform(-1, 1), g.uniform(0.3, 0.8), n))
        weight, mu2, sd2 = g.uniform(0.6, 0.8), g.uniform(3, 5), g.uniform(0.3, 0.7)
        first = g.random(n) < weight
        out["mixture"].append(
            np.where(first, g.standard_normal(n), mu2 + sd2 * g.standard_normal(n)))
    return out


@dataclass(frozen=True)
class CliInputs:
    sample: np.ndarray     # positive AGR sample, written to CSV
    omega: float
    psi: float


def cli_inputs(seed: int) -> CliInputs:
    g = rng(seed, 4)
    w = float(g.uniform(0.5, 1.0))
    sample = agr_draws(g, w, w * float(g.uniform(0.01, 0.03)), CLI_SAMPLE)
    return CliInputs(sample=sample, omega=float(g.uniform(0.01, 0.05)),
                     psi=float(g.uniform(0.002, 0.01)))


def write_csv(path: Path, values) -> Path:
    """One column with a header, full float precision."""
    path.write_text("loss\n" + "".join(f"{v!r}\n" for v in map(float, values)),
                    encoding="utf-8")
    return path
