"""numpy helpers of the elementwise kernels: scalar-or-array input, checked
once, a seeded generator, and bulk evaluation in cache-sized blocks, in one
contiguous chunk per CPU, each on a thread of the call's own that walks it
in 16 blocks, so that it takes the interpreter lock as seldom as the cache
allows."""

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
#: A kernel holds about 6 blocks of temporaries while it evaluates one (the
#: hazards; most hold 5), and each thread holds its own: a thread walks its
#: chunk in 16 blocks, so together they stay within half of the output's
#: size on any number of CPUs, as they do on one.
CHUNK = 16 * BLOCK


#: The types taken as one number, by exact type (not bool, nor a 0-d array).
SCALARS = (float, int, np.float64)


def float_array(x, name):
    """``np.asarray(x, dtype=float)``; what reads as no float array (such as
    text, a complex or a ragged sequence) raises :class:`DomainError`."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must hold real numbers: {exc}") from None


def as_float_array(x, name="x", require_finite=False):
    """Coerce to a float ndarray, rejecting NaN (and optionally infinities).

    A number of a ``SCALARS`` type is checked with ``math`` and returned as an
    ``np.float64``: every ufunc then runs the loop a 0-d array would, with the
    same bits, without the array's per-call cost."""
    if type(x) in SCALARS:
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
    if np.isnan(arr).any():
        raise DomainError(f"{name} must not contain NaN")
    if require_finite and not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def match_input(x, result):
    """Return a bare float when the caller passed a scalar."""
    if type(x) in SCALARS or np.ndim(x) == 0:
        return float(result)
    return result


def generator(seed):
    """``np.random.default_rng(seed)``; a seed it refuses raises :class:`DomainError`."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed must be a nonnegative integer or a SeedSequence: {exc}") from None


def cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def blockwise(fn, arr, out=None):
    """``fn(arr)`` for an elementwise float ``fn``, evaluated a block at a time
    into one output array of ``arr``'s shape: ``out`` if given (a contiguous
    float array, which may be ``arr`` itself), else a new one.

    Each element passes through the same ufuncs in the same order, so the
    result is bit-identical to ``fn(arr)`` at any block length; only the
    temporaries shrink.  A kernel chains 5-15 ufuncs, each writing a
    temporary the size of its input: at 16 Ki doubles (128 KiB) those stay
    in a core's L2 cache, where on 1e6 points each would be a fresh 8 MB
    array that faults in new pages and waits on memory.  Of 4, 16, 64 and
    256 Ki, ``BLOCK`` = 16 Ki was the fastest for the 1e6-point kernels on
    one thread of a 2-vCPU Xeon VM with 2 MiB of L2 per core.  Inputs of at
    most ``BLOCK`` elements are passed to ``fn`` whole.

    An input of at least ``2 * CHUNK`` elements is split into one contiguous
    chunk per CPU (:func:`cpus`), each of at least ``CHUNK`` elements.  The
    call starts a thread for each chunk after the first, evaluates chunk 0
    itself, and joins every thread before it returns: no thread outlives
    it, a forked child inherits none, and a bulk call inside a chunk splits
    as any other does.  On the same VM the second chunk's first block began
    a median 105 us after the call (59 us in a pool's thread), and each
    1e6-point kernel took 1.02-1.04 times as long as with a pool.  numpy's
    ufuncs release the interpreter lock over a block, so the chunks run at
    once, and ``fn`` must be safe to call so, on disjoint blocks.  A thread
    takes the lock back after every ufunc, each take waiting on the other
    threads' Python code: ten ``np.add`` calls per block over 1 Mi doubles
    took 3.6-4.1 ms on one thread and 3.3-3.6 on two at 16 Ki blocks, but
    3.4-3.5 and 1.8-2.1 ms at 64 Ki.  So a thread walks its chunk in 16
    blocks of ``ceil(len(chunk) / 16)`` elements, at most ``4 * BLOCK``
    each, and all threads' temporaries stay within 6/16 of the output (see
    :data:`CHUNK`).  One chunk is walked in ``BLOCK``-long blocks: on one
    CPU, 16 blocks of 62.5 Ki took ``agr_cdf``, ``agr_pdf`` and
    ``agr_logpdf`` 10-11% longer over 1e6 points.  An exception in any
    chunk reaches the caller (the lowest chunk's, if several raise).
    """
    n = arr.size
    if n <= BLOCK and out is None:
        return fn(arr)
    if out is None:
        out = np.empty(arr.shape)
    flat, res = arr.reshape(-1), out.reshape(-1)

    def run(start, stop, step):
        for i in range(start, stop, step):
            j = min(i + step, stop)
            res[i:j] = fn(flat[i:j])

    chunks = min(cpus(), n // CHUNK)
    if chunks <= 1:
        run(0, n, BLOCK)
        return out
    bounds = [n * k // chunks for k in range(chunks + 1)]
    errors = [None] * chunks

    def run_chunk(k):
        start, stop = bounds[k], bounds[k + 1]
        try:
            run(start, stop, min(4 * BLOCK, -(-(stop - start) // 16)))
        except BaseException as exc:
            errors[k] = exc

    threads = []
    try:
        for k in range(1, chunks):  # in a copy of the caller's context: its np.errstate
            t = threading.Thread(target=contextvars.copy_context().run, args=(run_chunk, k))
            t.start()
            threads.append(t)
        run_chunk(0)
    finally:
        for t in threads:  # every chunk is done before the output is read or dropped
            t.join()
    for exc in filter(None, errors):
        raise exc
    return out
