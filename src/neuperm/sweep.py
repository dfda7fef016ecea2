"""Ordered sweeps over independent items on every CPU the process may use.

``run_ordered(produce, consume, items)`` calls ``consume(item,
produce(item))`` for each item, in the order of ``items``. ``produce`` runs
on W threads, one per CPU in the process's affinity mask (``taskset``
limits it); ``consume`` runs on the calling thread only. A sweep whose
``consume`` is the only place results meet therefore computes the same
bytes at any W. A ``produce`` may also write its own disjoint slice of a
shared output array and return nothing, which keeps the same property.
The spread-spectrum chip sweeps in ``stego`` and the blocked Gaussian draws
in ``rng`` use it.

While a sweep runs, numpy's OpenBLAS is held at one thread and then set back
to its previous count. The sweep threads make their own BLAS calls, so a
second BLAS thread per call only busy-waits against them; one thread also
fixes the summation order, because for some shapes a threaded OpenBLAS gemv
splits a sum between its threads, which makes its rounding depend on the
CPU count.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

#: results a helper thread may finish before the calling thread consumes them
_AHEAD = 2


def workers() -> int:
    """Threads a sweep runs on: one per CPU in this process's affinity mask,
    or per CPU where the platform has no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: (get, set) thread-count symbols of the OpenBLAS builds numpy wheels bundle
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=1)
def _blas_thread_calls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None
    when numpy ships no OpenBLAS that exports them."""
    lib_dir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(lib_dir) if "openblas" in n)
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(lib_dir, name))
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_single_thread():
    """Hold OpenBLAS at one thread, then restore its previous count, also
    when the block raises. Does nothing when the calls are not found."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    prior = get()
    set_(1)
    try:
        yield
    finally:
        set_(prior)


def run_ordered(produce, consume, items) -> None:
    """``consume(item, produce(item))`` for each item, consumed in order.

    W = workers(), and never more than there are items. The calling thread
    produces items 0, W, 2W, ... and consumes them all; helper thread j
    produces items j, j + W, ... and runs at most _AHEAD of them ahead.
    OpenBLAS is held at one thread meanwhile. An error raised by either
    function is raised here, once every helper has stopped.
    """
    count = min(workers(), len(items))
    stop = threading.Event()
    done = [collections.deque() for _ in range(count)]
    ready = [threading.Semaphore(0) for _ in range(count)]
    room = [threading.Semaphore(_AHEAD) for _ in range(count)]

    def produce_share(j: int) -> None:
        for item in items[j::count]:
            room[j].acquire()
            if stop.is_set():
                return
            try:
                done[j].append((produce(item), None))
            except BaseException as e:  # re-raised on the calling thread
                done[j].append((None, e))
                return
            finally:
                ready[j].release()

    helpers = [threading.Thread(target=produce_share, args=(j,)) for j in range(1, count)]
    with blas_single_thread():
        for t in helpers:
            t.start()
        try:
            for i, item in enumerate(items):
                j = i % count
                if j == 0:
                    result = produce(item)
                else:
                    ready[j].acquire()
                    result, error = done[j].popleft()
                    room[j].release()
                    if error is not None:
                        raise error
                consume(item, result)
        finally:
            stop.set()
            for j in range(1, count):
                room[j].release()  # a helper waiting for room wakes, sees stop, returns
            for t in helpers:
                t.join()
