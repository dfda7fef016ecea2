"""Helper threads: ordered sweeps over independent items on every CPU the
process may use, one background call beside the calling thread, and one
helper fed items in order.

``run_ordered(produce, consume, items)`` calls ``consume(item,
produce(item))`` for each item, in the order of ``items``. W threads, one
per CPU in the process's affinity mask (``taskset`` limits it), each take
the next item, produce it, and consume every result that is next in order,
one consume at a time. A sweep whose ``consume`` is the only place results
meet therefore computes the same bytes at any W; so does one whose
``produce`` writes its own disjoint slice of a shared output array. The
spread-spectrum chip sweeps in ``stego``, the blocked Gaussian draws in
``rng`` and the extraction game in ``analysis`` use it.

While a sweep runs, numpy's OpenBLAS is held at one thread and then set back
to its previous count. The sweep threads make their own BLAS calls, so a
second BLAS thread per call only busy-waits against them; one thread also
fixes the summation order, because for some shapes a threaded OpenBLAS gemv
splits a sum between its threads, which makes its rounding depend on the
CPU count.

``background(fn, *args)`` runs one call on a helper thread for the length of
a ``with`` block. ``attack`` and ``evaluate`` hash their input archive that
way while they parse and use it, and ``sanitize`` hashes its input file that
way while it streams the rewrite, reading the file through the same handle
as the tensors. ``feeding(fn)`` runs ``fn`` on each item a ``with`` block
puts, in order, on one helper thread: ``save_archive`` hashes each block
that way while it writes that block and produces the next. sha256, file
reads and writes and ``np.take`` release the GIL, so the hash runs on
another CPU beside that work. Unlike a sweep, neither touches the OpenBLAS
thread count.

A helper that cannot start (the thread limit or the address space is used
up) raises MemoryError, which commands report as one error line, once every
helper already started has stopped.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading

import numpy as np

#: items per thread that a sweep may take before their results are consumed
_AHEAD = 2
#: items feeding() lets wait for its helper beside the one it is on
_QUEUED = 1
#: what feeding() sends its helper once the block is left
_DONE = object()


def _start(thread: threading.Thread) -> None:
    """Start ``thread``; the RuntimeError of a thread that cannot start
    becomes a MemoryError naming it."""
    try:
        thread.start()
    except RuntimeError as e:
        raise MemoryError(f"cannot start a helper thread: {e}") from e


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

    W = workers(), never more than there are items, the calling thread one
    of them. A thread that is held up delays only the item it holds until
    _AHEAD * W items are taken and not yet consumed; then the others wait
    for it. OpenBLAS is held at one thread meanwhile. An error raised by
    either function is raised here, once every helper has stopped.
    """
    count = min(workers(), len(items))
    lock = threading.Condition()
    done = {}  # index -> (item, result), produced and not yet consumed
    errors = []
    taken = consumed = 0

    def work() -> None:
        nonlocal taken, consumed
        with lock:
            try:
                while not errors and taken < len(items):
                    if taken - consumed >= _AHEAD * count:
                        lock.wait()
                        continue
                    i, item = taken, items[taken]
                    taken += 1
                    lock.release()
                    try:
                        result = produce(item)
                    finally:
                        lock.acquire()
                    done[i] = item, result
                    while not errors and consumed in done:
                        consume(*done.pop(consumed))
                        consumed += 1
                        lock.notify_all()
            except BaseException as e:  # re-raised on the calling thread
                errors.append(e)
            finally:
                lock.notify_all()

    started = []
    with blas_single_thread():
        try:
            for _ in range(1, count):
                started.append(threading.Thread(target=work))
                _start(started[-1])
        except MemoryError as e:  # the helpers already started stop at once
            started.pop()
            with lock:
                errors.append(e)
        work()
        for t in started:
            t.join()
    if errors:
        raise errors[0]


@contextlib.contextmanager
def background(fn, *args):
    """Run ``fn(*args)`` on a helper thread while the block runs.

    Yields a callable that waits for the thread and returns ``fn``'s result
    or raises its error, inside the block or after it. Leaving the block
    waits for the thread too, also when the block raises, so the helper
    never outlives it.
    """
    outcome = []

    def run() -> None:
        try:
            outcome.append((fn(*args), None))
        except BaseException as e:  # re-raised by result()
            outcome.append((None, e))

    thread = threading.Thread(target=run)
    _start(thread)

    def result():
        thread.join()
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    try:
        yield result
    finally:
        thread.join()


@contextlib.contextmanager
def feeding(fn):
    """Call ``fn(item)`` on one helper thread for each item the block puts.

    Yields a queue: ``put(item)`` hands one item over and returns at once
    unless _QUEUED items already wait beside the one the helper is on, and
    ``join()`` waits until the helper has let go of every item put so far.
    Items are taken in the order put. Leaving the block waits until the
    helper has done every item, then raises the first error ``fn`` raised;
    the helper skips what is put after that error. When the block raises,
    the helper skips what is left and has stopped before the block's error
    propagates.
    """
    items = queue.Queue(_QUEUED)
    errors = []

    def run() -> None:
        while (item := items.get()) is not _DONE:
            if not errors:
                try:
                    fn(item)
                except BaseException as e:  # raised when the block is left
                    errors.append(e)
            del item  # let it go before waiting for the next
            items.task_done()

    thread = threading.Thread(target=run)
    _start(thread)
    try:
        yield items
    except BaseException as e:
        errors.append(e)
        raise
    finally:
        items.put(_DONE)
        thread.join()
    if errors:
        raise errors[0]
