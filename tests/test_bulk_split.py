"""Bulk ops split over CPUs keep every bit of one serial pass.

The seeded ops draw each run's uniforms by ``_arrays.walk`` on its own
thread, from a copy of the generator jumped ahead to its first draw: the
results equal ``serial_draws``' one-thread loops, and a caller's generator
ends where those leave it.  A bad input raises the error one scan of the
whole input names, in whichever run its faults lie: the AGR kernels scan
before the blocks, and ``arctan_cdf`` checks each block and rescans only on
a fault.
"""

import math
import tracemalloc

import numpy as np
import pytest

import serial_draws
from arctangr import (
    P_STAR,
    DomainError,
    GaussianParams,
    agr_logpdf,
    agr_quantile,
    agr_sample,
    arctan_cdf,
    arctan_pdf,
    gaussian_base,
    mc_oracle,
)
from arctangr import distributions
from arctangr._arrays import BLOCK, CHUNK
from arctangr.distributions import _DRAW_BLOCK

CPUS = [1, 2, 3, 4, 8, 64]

# (alpha, the number of draw blocks, the exceedances aimed at): one block,
# two, four with a short last one, and nine, a round that two CPUs split, on
# both sides of P_STAR
MC_CASES = [(0.9, 1, 20_000), (0.9, 2, 50_000), (0.9, 4, 130_000), (0.9, 9, 280_000),
            (0.55, 1, 20_000), (0.55, 2, 50_000), (0.55, 4, 130_000), (0.55, 9, 280_000)]
assert distributions._SPLIT_BLOCKS <= 9
assert 0.55 < P_STAR <= 0.9


def seeds(n):
    """An int seed and a SeedSequence child, as the CLI gives each level."""
    return [n, np.random.SeedSequence(n).spawn(3)[2]]


def same(got, want):
    """Equal results, bit for bit: an MCOracleResult by its repr (a float's
    repr reads back to its bits), an array by its int64 view."""
    if isinstance(want, tuple):
        assert repr(got) == repr(want)
    else:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def state(bg):
    """A bit generator's state, its arrays as lists, comparable by ``==``."""
    def plain(v):
        if isinstance(v, dict):
            return {key: plain(item) for key, item in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(bg.state)


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("alpha, blocks, aim", MC_CASES)
def test_mc_oracle_equals_the_serial_loop(set_cpus, table_params, cpus, alpha, blocks, aim):
    set_cpus(cpus)
    n = round(aim / (1.0 - alpha))
    for seed in seeds(n):
        k = np.random.default_rng(seed).binomial(n, 1.0 - alpha)
        assert -(-k // _DRAW_BLOCK) == blocks and k % _DRAW_BLOCK
        want = serial_draws.mc_oracle(table_params, alpha, n, np.random.default_rng(seed))
        same(mc_oracle(table_params, alpha, n, seed), want)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("aim", [130_000, 280_000])
def test_mc_oracle_in_rounds_equals_the_serial_loop(set_cpus, monkeypatch, table_params, cpus,
                                                    aim):
    # rounds of 4 blocks, split from 2: 4 blocks make one round in two runs;
    # 9 make two such rounds and a last one-block round on the caller
    set_cpus(cpus)
    monkeypatch.setattr(distributions, "_ROUND", 4)
    monkeypatch.setattr(distributions, "_SPLIT_BLOCKS", 2)
    n = round(aim / 0.1)
    for seed in seeds(n):
        want = serial_draws.mc_oracle(table_params, 0.9, n, np.random.default_rng(seed))
        same(mc_oracle(table_params, 0.9, n, seed), want)


@pytest.mark.parametrize("cpus", [1, 2, 4, 8, 64])
def test_mc_oracle_memory_does_not_grow_with_the_blocks(set_cpus, monkeypatch, table_params,
                                                        cpus):
    # blocks of 256 draws: 1e7 draws at level 0.9 make ~3,900 blocks, whose
    # sums alone (40 bytes each) would outweigh all the buffers
    set_cpus(cpus)
    monkeypatch.setattr(distributions, "_DRAW_BLOCK", 256)

    def peak(n):
        tracemalloc.start()
        try:
            mc_oracle(table_params, 0.9, n, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mc_oracle(table_params, 0.9, 1000, seed=1)  # fills the tail caches first
    small = peak(10**6)  # ~390 blocks
    assert peak(10**7) <= 1.1 * small


# one block, one chunk walked in blocks, two and three chunks, a short last one
SAMPLE_SIZES = [7, BLOCK + 1, 2 * CHUNK, 2 * CHUNK + 7, 3 * CHUNK + 5]


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_agr_sample_equals_one_draw(set_cpus, table_params, cpus, n):
    set_cpus(cpus)
    for seed in seeds(n):
        want = serial_draws.sample(table_params, n, np.random.default_rng(seed))
        same(agr_sample(table_params, n, seed), want)


def callers_generators(kind):
    """Two generators in one state: one for the op, one for the serial loop.
    A PCG64 has drawn a 32-bit value first, so it holds half of its output
    back, which a jump ahead would clear."""
    made = []
    for _ in range(2):
        rng = np.random.Generator(kind(2024))
        rng.integers(0, 2**32, dtype=np.uint32)
        made.append(rng)
    return made


@pytest.mark.parametrize("cpus", [2, 3, 4, 8])
@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937])
def test_a_callers_generator_ends_where_the_serial_draw_leaves_it(set_cpus, table_params,
                                                                   cpus, kind):
    # MT19937 cannot jump ahead: it draws on the caller, with the same result
    set_cpus(cpus)
    rng, ref = callers_generators(kind)
    if kind is np.random.PCG64:
        assert rng.bit_generator.state["has_uint32"] == 1
    same(agr_sample(table_params, 3 * CHUNK + 5, rng),
         serial_draws.sample(table_params, 3 * CHUNK + 5, ref))
    assert state(rng.bit_generator) == state(ref.bit_generator)
    # ~3e5 tail draws: ten blocks, in one round that two CPUs split
    same(mc_oracle(table_params, 0.9, 3_000_000, rng),
         serial_draws.mc_oracle(table_params, 0.9, 3_000_000, ref))
    assert state(rng.bit_generator) == state(ref.bit_generator)
    assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
    assert rng.random() == ref.random()


def test_a_bit_generator_passed_as_seed_is_drawn_from(set_cpus, table_params):
    set_cpus(2)
    bg, ref = np.random.PCG64(5), np.random.default_rng(5)
    same(agr_sample(table_params, 2 * CHUNK, bg), serial_draws.sample(table_params, 2 * CHUNK, ref))
    assert state(bg) == state(ref.bit_generator)


BASE = gaussian_base(GaussianParams(0.3, 2.0))


def split_input(n, faults):
    """``n`` finite points with ``faults`` at the given indices."""
    x = np.linspace(0.01, 0.99, n)
    for at, value in faults.items():
        x[at] = value
    return x


@pytest.mark.parametrize("cpus", [2, 3, 4, 8])
def test_a_nan_in_a_later_chunk_is_named_before_an_earlier_fault(set_cpus, table_params, cpus):
    set_cpus(cpus)
    n = cpus * CHUNK + 11
    later = n - 3  # in the last chunk; index 5 is in chunk 0
    x = split_input(n, {5: math.inf, later: math.nan})
    for fn in (lambda v: agr_logpdf(table_params, v), lambda v: arctan_pdf(BASE, v)):
        with pytest.raises(DomainError, match=r"^x must not contain NaN$"):
            fn(x)
    p = split_input(n, {5: 1.5, later: math.nan})
    with pytest.raises(DomainError, match=r"^p must not contain NaN$"):
        agr_quantile(table_params, p)
    with pytest.raises(DomainError, match=r"^x must not contain NaN$"):
        arctan_cdf(BASE, split_input(n, {later: math.nan}))
    # with no NaN, the fault each kernel refuses is named, in whichever chunk
    with pytest.raises(DomainError, match=r"^x must be finite$"):
        agr_logpdf(table_params, split_input(n, {later: -math.inf}))
    with pytest.raises(DomainError, match=r"^p must lie strictly inside \(0, 1\)$"):
        agr_quantile(table_params, split_input(n, {later: 0.0}))
