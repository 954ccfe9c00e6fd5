"""numpy helpers of the elementwise kernels: scalar-or-array input, checked
once, a seeded generator, and the one walk of every bulk op (:func:`walk`),
which cuts an input into blocks, splits them into runs on the call's own
threads and draws each run's stretch of a seeded stream from a generator
jumped ahead to it, with the bits of one serial pass."""

import contextvars
import math
import os
import threading

import numpy as np

from .errors import DomainError

#: Elements per block of a bulk elementwise evaluation on one thread (see
#: :func:`blockwise`).
BLOCK = 1 << 14

#: The fewest elements a thread takes of a bulk input (see :func:`blockwise`).
#: A kernel holds at most 6 blocks of temporaries while it evaluates one, its
#: standardized input included (the two hazards; the Rayleigh density and
#: log-density 3 to 5.1, the most in a block that takes their fallback; the
#: others 2 to 4.2, measured with ``tracemalloc``), and each thread holds
#: its own: a thread's blocks are a sixteenth of its run, so together they
#: stay within half of the output's size on any number of CPUs, as they do
#: on one.
CHUNK = 16 * BLOCK


#: The types taken as one number, by exact type (not bool, nor a 0-d array).
SCALARS = (float, int, np.float64)

#: The bit generators whose ``advance(k)`` skips ``k`` draws of one double each.
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def is_number(x):
    """Whether ``x`` is one number of a ``SCALARS`` type, which
    :func:`as_float_array` reads with ``math`` and :func:`match_input` gives
    back as a float."""
    return type(x) in SCALARS


def float_array(x, name):
    """``x`` as a float ndarray, with no check of its values; what reads as no
    real array (such as text, a complex or a ragged sequence) raises
    :class:`DomainError`.  A complex array is refused before any cast, which
    would drop its imaginary part."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind == "c":
            raise TypeError(f"got {arr.dtype} values")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must hold real numbers: {exc}") from None


def as_float_array(x, name="x", require_finite=False):
    """Coerce to a float ndarray, rejecting NaN (and optionally infinities).

    A number of a ``SCALARS`` type is checked with ``math`` and returned as an
    ``np.float64``: every ufunc then runs the loop a 0-d array would, with the
    same bits, without the array's per-call cost.  Anything else is read by
    :func:`float_array` and scanned once; a NaN is named before an infinity."""
    if is_number(x):
        try:
            v = float(x)
        except OverflowError as exc:  # an int beyond the doubles
            raise DomainError(f"{name} must hold real numbers: {exc}") from None
        if math.isnan(v):
            raise DomainError(f"{name} must not contain NaN")
        if require_finite and math.isinf(v):
            raise DomainError(f"{name} must be finite")
        return np.float64(v)
    arr = float_array(x, name)
    if np.isfinite(arr).all() if require_finite else not np.isnan(arr).any():
        return arr
    if np.isnan(arr).any():
        raise DomainError(f"{name} must not contain NaN")
    raise DomainError(f"{name} must be finite")


def match_input(x, result):
    """Return a bare float when the caller passed a scalar."""
    if is_number(x) or np.ndim(x) == 0:
        return float(result)
    return result


def generator(seed):
    """``np.random.default_rng(seed)``; a seed it refuses raises :class:`DomainError`."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed must be a nonnegative integer or a SeedSequence: {exc}") from None


def substreams(rng, bounds):
    """``(bounds, generators)``, the runs' streams of :func:`walk`: a
    generator for each interval of ``bounds`` (offsets into ``rng``'s stream
    of doubles, the first 0), drawing the stream from the interval's start.
    ``rng`` itself draws the last interval, so once every interval is drawn
    it ends where drawing them in turn leaves it; it draws the whole stream,
    as one interval ``[0, bounds[-1]]``, when its bit generator cannot jump
    ahead.

    A PCG64 (or PCG64DXSM) draws a double from one 64-bit output, and its
    ``advance`` skips any number of outputs in O(log n) steps (O'Neill 2014),
    so each interval but the last is drawn by a copy advanced to its first
    draw, and the last by ``rng`` advanced to its own: their draws are the
    serial stream's, bit for bit.  ``advance`` clears the 32-bit value a bit
    generator may hold back; a double draw never reads or writes it, so
    ``rng`` gets its own back."""
    bg = rng.bit_generator
    if len(bounds) <= 2 or type(bg) not in _JUMPABLE:
        return [0, bounds[-1]], [rng]
    state = bg.state

    def at(start):
        copy = type(bg)(0)  # seeded only to be overwritten
        copy.state = state
        copy.advance(start)
        return np.random.Generator(copy)

    draws = [at(start) for start in bounds[:-2]]
    bg.advance(bounds[-2])
    bg.state = {**bg.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return bounds, draws + [rng]


def cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def walk(n, step, runs, work, rng=None):
    """``work(r, i, j, draw)`` on each block ``[i, j)`` of ``range(n)``, the
    blocks cut at the multiples of ``step`` and split into at most ``runs``
    runs of consecutive blocks, run ``r`` walking its blocks in turn: the
    one walk of every bulk op (:func:`blockwise`, and the Monte Carlo sums
    of :func:`arctangr.distributions._tail_sums`).  Each caller chooses
    ``step`` and ``runs`` from its own work.

    With a generator ``rng``, ``draw`` is run ``r``'s generator of its
    stretch of ``rng``'s doubles (:func:`substreams`): drawing ``j - i``
    doubles from it in each block leaves the serial draw's bits, and ``rng``
    where that draw leaves it.  A generator that cannot jump ahead draws the
    whole stream, in one run on the caller.  Without one, ``draw`` is
    ``None``.

    Run 0 walks on the caller, each other on a thread that the call starts,
    in a copy of the caller's context (so its ``np.errstate`` holds there),
    and joins before it returns, also when a start fails.  No thread
    outlives the call, so a forked child inherits none, and a ``work`` may
    itself walk.  An exception in any run reaches the caller: the lowest
    run's, if several raise.  numpy's ufuncs release the interpreter lock
    over a block, so the runs go at once, and ``work`` must be safe to call
    so, on disjoint blocks.

    One memory rule holds for every walk: a block's temporaries live only
    while ``work`` runs on it, and what a run keeps from block to block is
    made by the caller before the walk, for as many runs as the call may
    ever split into, so the peak depends neither on the split nor on how
    the runs overlap in time.  :func:`blockwise` keeps nothing and cuts
    blocks of at most a sixteenth of a run, within 1.5 times its output on
    any number of CPUs (``TestMemoryBudget`` and its subclasses); the Monte
    Carlo sums keep the buffers of ``min(cpus(), 2)`` runs, whatever a
    round's split, so their peak does not grow with ``n``
    (``test_memory_does_not_grow_with_n``)."""
    blocks = -(-n // step)
    runs = max(1, min(runs, blocks))
    bounds = [min(n, blocks * r // runs * step) for r in range(runs + 1)]
    draws = [None] * runs
    if rng is not None:
        bounds, draws = substreams(rng, bounds)
    errors = [None] * len(draws)

    def run(r):
        try:
            for i in range(bounds[r], bounds[r + 1], step):
                work(r, i, min(i + step, bounds[r + 1]), draws[r])
        except BaseException as exc:
            errors[r] = exc

    threads = []
    try:
        for r in range(1, len(draws)):
            t = threading.Thread(target=contextvars.copy_context().run, args=(run, r))
            t.start()
            threads.append(t)
        run(0)
    finally:
        for t in threads:  # every block is done before its output is read or dropped
            t.join()
    for exc in filter(None, errors):
        raise exc


def blockwise(fn, arr, out=None, rng=None):
    """``fn(arr)`` for an elementwise float ``fn(v, out=None)``, evaluated a
    block at a time into one output array of ``arr``'s shape: ``out`` if
    given (a contiguous float array, which may be ``arr`` itself), else a
    new one.  ``fn`` is given each block ``v`` with its block of the output
    as ``out``, and writes its result there (its last ufunc's ``out``), so
    no block is copied; ``v`` and ``out`` may be one buffer, which ``fn``
    overwrites only once it has read ``v``.  With a generator ``rng``, each
    block of ``arr`` (then a contiguous float array) is first overwritten by
    ``rng``'s next uniforms on [0, 1), so that ``arr`` ends as
    ``rng.random(arr.size)`` would make it, and ``rng`` where that draw
    leaves it.

    Each element passes through the same ufuncs in the same order, so the
    result is bit-identical to ``fn(arr)`` at any block length; only the
    temporaries shrink.  A kernel chains 5-15 ufuncs, each writing a
    temporary the size of its input: at 16 Ki doubles (128 KiB) those stay
    in a core's L2 cache, where on 1e6 points each would be a fresh 8 MB
    array that faults in new pages and waits on memory.  Of 4, 16, 64 and
    256 Ki, ``BLOCK`` = 16 Ki was the fastest for the 1e6-point kernels on
    one thread of a 2-vCPU Xeon VM with 2 MiB of L2 per core.  Inputs of at
    most ``BLOCK`` elements, with no ``out``, are passed to ``fn`` whole, as
    ``fn(arr)``, and its result is returned.

    The split rule: an input of at least ``2 * CHUNK`` elements is walked
    (:func:`walk`) in one run per CPU (:func:`cpus`), each of at least
    ``CHUNK`` elements.  A thread takes the interpreter lock back after
    every ufunc, each take waiting on the other threads' Python code: ten
    ``np.add`` calls per block over 1 Mi doubles took 3.6-4.1 ms on one
    thread and 3.3-3.6 on two at 16 Ki blocks, but 3.4-3.5 and 1.8-2.1 ms
    at 64 Ki.  So the runs share ``16 * runs`` blocks of
    ``ceil(n / (16 * runs))`` elements, at most ``4 * BLOCK`` each, and all
    threads' temporaries stay within 6/16 of the output (see
    :data:`CHUNK`).  A call on two CPUs still waits for the lock 60-110
    times over 1e6 points (its voluntary context switches, ``ru_nvcsw``),
    the fewer the fewer and cheaper the ufuncs of a block: ``agr_logpdf``
    and ``agr_quantile`` counted 125-160 at 19 and 23 numpy calls a block,
    70-80 at 13 and 17.  One run walks ``BLOCK``-long blocks: on one CPU, 16
    blocks of 62.5 Ki took ``agr_cdf``, ``agr_pdf`` and ``agr_logpdf`` 10-11%
    longer over 1e6 points.
    """
    n = arr.size
    if n <= BLOCK and out is None:
        return fn(arr)
    if out is None:
        out = np.empty(arr.shape)
    flat, res = arr.reshape(-1), out.reshape(-1)
    runs = max(1, min(cpus(), n // CHUNK))
    step = BLOCK if runs == 1 else min(4 * BLOCK, -(-n // (16 * runs)))

    def work(r, i, j, draw):
        v = flat[i:j]
        if draw is not None:
            draw.random(out=v)
        fn(v, res[i:j])

    walk(n, step, runs, work, rng)
    return out


def elementwise(fn, x, require_finite=False):
    """``fn(x)`` for an elementwise float ``fn(v, out=None)`` (see
    :func:`blockwise`): the one input path of every public array function of
    ``x``.  ``x`` is checked once (:func:`as_float_array`), walked in blocks
    (:func:`blockwise`), and a number or a 0-d array gets a float back
    (:func:`match_input`)."""
    return match_input(x, blockwise(fn, as_float_array(x, require_finite=require_finite)))
