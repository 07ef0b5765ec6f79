"""Chunk maps over forked worker processes, results in chunk order.

Every chunked computation in ousse is a pure function of its row range
(streams are keyed per row) and its caller merges the chunk results in
chunk order, so the worker count changes no bit of any output.  Workers
are forked, so a chunk function may be a closure over the model and the
seeds: it is inherited, not pickled, and only row ranges and results
cross between processes.  Each pool is shut down when its block exits.
"""

import contextlib
import os

from .errors import ValidationError

__all__ = ["usable_cpus", "worker_count", "map_chunks"]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


def worker_count(workers, n_chunks: int) -> int:
    """Processes for ``n_chunks`` chunks: ``workers`` (default: all usable
    CPUs), capped at the usable CPUs and at the chunk count."""
    if workers is not None and (isinstance(workers, bool) or not isinstance(workers, int)
                                or workers < 1):
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")
    cap = min(usable_cpus(), n_chunks)
    return max(1, cap if workers is None else min(workers, cap))


# the chunk function of the pool this worker belongs to; set by the
# pool initializer in the forked worker only, never in the caller
_chunk_fn = None


def _install(fn):
    global _chunk_fn
    _chunk_fn = fn
    _single_threaded_blas()


def _single_threaded_blas():
    """Run every OpenBLAS this worker has loaded on one thread.

    The workers already fill the CPUs; a forked worker would otherwise
    keep the caller's BLAS thread count, and those threads spinning
    beside the other workers made two workers slower than one.  Thread
    counts do not split a GEMM's inner products, so no bit changes.
    """
    try:
        with open("/proc/self/maps") as f:  # Linux; elsewhere BLAS is left alone
            paths = {p[5] for p in map(str.split, f) if len(p) > 5 and "openblas" in p[5]}
    except OSError:
        return
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)


def _run(bounds):
    return _chunk_fn(*bounds)


@contextlib.contextmanager
def map_chunks(fn, bounds, workers: int):
    """Context giving an iterator over ``fn(lo, hi)`` for ``(lo, hi)`` in
    ``bounds``, in chunk order, computed on up to ``workers`` processes.

    With one worker or one chunk the calls run lazily in this process.
    A chunk's exception is raised where its result would be.  Leaving
    the block early, as a caller that aborts does, skips the chunks not
    yet started; no worker outlives the block.
    """
    bounds = list(bounds)
    if workers <= 1 or len(bounds) <= 1:
        yield (fn(lo, hi) for lo, hi in bounds)
        return
    # imported here: runs that stay in-process never pay for the import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(min(workers, len(bounds)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_install, initargs=(fn,))
    try:
        yield pool.map(_run, bounds)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
