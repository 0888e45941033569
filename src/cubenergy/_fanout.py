"""Map a function over a list in forked worker processes.

``_fan_out`` gives each CPU of the affinity mask one contiguous chunk of the
items and returns the results in item order, so a report built from them is
the same for any worker count.  The certified grids and psi shapes
(intervals, for legendre) use it for the points of each rung, the sampled
sweeps (energy) for their independent mask energies, and the extension
optimizer (extension) for its independent starts.
"""
from __future__ import annotations

import os
from typing import Callable, List, Sequence

_fanning_out = False        # True inside a fan-out, in its workers too


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def _fan_out_width(n_items: int, min_chunk: int) -> int:
    """Processes to share ``n_items`` items, the caller's included, with at
    least ``min_chunk`` items each."""
    if _fanning_out or not hasattr(os, "fork"):
        return 1
    import threading
    if threading.active_count() > 1:    # a fork copies only this thread
        return 1
    return max(1, min(_cpu_count(), n_items // min_chunk))


def _fan_out(fn: Callable, items: Sequence, min_chunk: int) -> List:
    """``[fn(x) for x in items]``, computed in forked worker processes.

    The items are split into contiguous chunks, one per CPU of the affinity
    mask and each of at least ``min_chunk`` items, the caller's measure of
    what pays for a fork.  The caller computes the first chunk, each other
    chunk is computed by a forked worker, and the results are merged in
    item order.
    ``fn`` and the items reach a worker through the fork, so they need not
    pickle; results do, and what ``fn`` changes in a worker is lost.  The
    first exception in chunk order is raised.  The work runs serially in
    the caller when a single chunk is left, when ``os.fork`` is missing,
    when the process runs other threads, and inside another fan-out.  No
    worker outlives the call.
    """
    global _fanning_out
    width = _fan_out_width(len(items), min_chunk)
    if width < 2:
        return [fn(x) for x in items]
    bounds = [len(items) * w // width for w in range(width + 1)]
    children = []               # (pid, read end of its pipe), in chunk order
    finished = False
    _fanning_out = True
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            child = _fork_worker(fn, items[lo:hi])
            if child is None:
                break
            children.append(child)
        results = [fn(x) for x in items[:bounds[1]]]
        for _, read_fd in children:
            results.extend(_worker_results(read_fd))
        # chunks no worker could be forked for
        results.extend(fn(x) for x in items[bounds[len(children) + 1]:])
        finished = True
        return results
    finally:
        _fanning_out = False
        for pid, read_fd in children:
            os.close(read_fd)
            if not finished:
                import signal
                os.kill(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:   # reaped already: SIGCHLD ignored
                pass


def _fork_worker(fn: Callable, chunk: list):
    """Fork a worker that writes ``[fn(x) for x in chunk]``, or the
    exception that stopped it, pickled into a pipe.  Returns the worker's
    pid and the pipe's read end, or None when no pipe or process can be made.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        import pickle
        os.close(read_fd)
        try:
            data = pickle.dumps((True, [fn(x) for x in chunk]))
        except Exception as exc:        # raised again in the caller
            data = pickle.dumps((False, exc))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
    finally:
        # never return into the caller's stack, flush nothing it buffered
        os._exit(0)


def _worker_results(read_fd: int) -> list:
    """The results a worker pickled into the pipe ``read_fd``; raises the
    worker's exception."""
    import pickle
    with open(read_fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    if not data:
        raise RuntimeError("a fan-out worker exited without its results")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value
