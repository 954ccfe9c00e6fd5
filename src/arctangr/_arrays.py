"""numpy helpers of the elementwise kernels: scalar-or-array input, checked
once, and bulk evaluation in cache-sized blocks, in one contiguous chunk of
blocks per CPU."""

import contextvars
import math
import os
import threading

import numpy as np

from .errors import DomainError

#: Elements per block of a bulk elementwise evaluation (see :func:`blockwise`).
BLOCK = 1 << 14

#: The fewest elements a thread takes of a bulk input (see :func:`blockwise`).
#: A kernel holds up to 7 blocks of temporaries while it evaluates one (the
#: hazard; most hold 5), and each thread holds its own: at 16 blocks or more
#: per thread they stay within half of the output's size on any number of
#: CPUs, as they do on one.
CHUNK = 16 * BLOCK


#: The types taken as one number, by exact type (not bool, nor a 0-d array).
SCALARS = (float, int, np.float64)


def as_float_array(x, name="x", require_finite=False):
    """Coerce to a float ndarray, rejecting NaN (and optionally infinities).

    A number of a ``SCALARS`` type is checked with ``math`` and returned as an
    ``np.float64``: every ufunc then runs the loop a 0-d array would, with the
    same bits, without the array's per-call cost."""
    if type(x) in SCALARS:
        v = float(x)
        if math.isnan(v):
            raise DomainError(f"{name} must not contain NaN")
        if require_finite and math.isinf(v):
            raise DomainError(f"{name} must be finite")
        return np.float64(v)
    arr = np.asarray(x, dtype=float)
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


def cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# The threads that evaluate chunks 1, 2, ... of a bulk input, made on first
# use; concurrent.futures is imported then, so a command that evaluates no
# bulk input never loads it.  A pool thread that meets a bulk input itself
# (a base CDF that evaluates one) runs it serially: waiting on chunks queued
# behind its own would never end.
_pool = None
_pool_lock = threading.Lock()
_in_pool = threading.local()


def _mark_pool_thread():
    _in_pool.flag = True


def _workers():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(cpus() - 1, thread_name_prefix="arctangr-blockwise",
                                       initializer=_mark_pool_thread)
        return _pool


def _drop_pool():
    """In a forked child: the parent's pool threads do not exist here, and a
    pool that counts them would queue every chunk for no thread to take."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def blockwise(fn, arr, out=None):
    """``fn(arr)`` for an elementwise float ``fn``, evaluated ``BLOCK`` elements
    at a time into one output array of ``arr``'s shape: ``out`` if given (a
    contiguous float array, which may be ``arr`` itself), else a new one.

    Each element passes through the same ufuncs in the same order, so the
    result is bit-identical to ``fn(arr)``; only the temporaries shrink.  A
    kernel chains 5-15 ufuncs, each writing a temporary the size of its
    input: at 16 Ki doubles (128 KiB) those stay in a core's L2 cache,
    where on 1e6 points each would be a fresh 8 MB array that faults in new
    pages and waits on memory.  Of 4, 16, 64 and 256 Ki, 16 Ki was the
    fastest for the 1e6-point kernels on a Xeon with 2 MiB of L2 per core.
    Inputs of at most ``BLOCK`` elements are passed to ``fn`` whole.

    The blocks are split into one contiguous chunk per CPU (:func:`cpus`),
    each of at least ``CHUNK`` elements: the calling thread evaluates chunk
    0, and a pool of ``cpus() - 1`` threads, made on first use, the others.
    numpy's ufuncs release the interpreter lock over a block, so the chunks
    run at once, and each block is the same slice, through the same calls,
    as on one CPU.  ``fn`` must therefore be safe to call from several
    threads at once, on disjoint blocks.  The call returns once every chunk
    is done, and an exception in any chunk reaches the caller (the lowest
    chunk's, if several raise).
    """
    n = arr.size
    if n <= BLOCK and out is None:
        return fn(arr)
    if out is None:
        out = np.empty(arr.shape)
    flat, res = arr.reshape(-1), out.reshape(-1)

    def run(start, stop):
        for i in range(start, stop, BLOCK):
            res[i:i + BLOCK] = fn(flat[i:i + BLOCK])

    chunks = 1 if getattr(_in_pool, "flag", False) else min(cpus(), n // CHUNK)
    if chunks <= 1:
        run(0, n)
        return out
    blocks = -(-n // BLOCK)
    # chunk k holds blocks [blocks*k // chunks, blocks*(k+1) // chunks)
    starts = [BLOCK * (blocks * k // chunks) for k in range(chunks)] + [n]
    pool = _workers()
    # each chunk runs in a copy of the caller's context, so under the
    # caller's np.errstate, as on one CPU
    rest = [pool.submit(contextvars.copy_context().run, run, *span)
            for span in zip(starts[1:], starts[2:])]
    try:
        run(0, starts[1])
    finally:
        for f in rest:  # every chunk is done before the output is read or dropped
            f.exception()
    for f in rest:
        f.result()
    return out
