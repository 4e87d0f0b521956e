"""A second process for the pretraining step and the graph-free
representation pass, memory it shares, and the one-thread BLAS policy.

A request handler is a plain callable. `runner(handler)` yields something
that answers requests with it: a forked `Worker` when one can run, else a
`Local` runner that calls the handler in this process. Both give the same
replies to the same requests. While a runner is open, numpy's OpenBLAS is
pinned to one thread; two processes each running a multi-threaded BLAS
thrash on a 2-CPU machine, and one thread also makes a GEMM's bits
independent of the thread count the environment asks for.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
import signal

import numpy as np

from .errors import MtslofError, WorkerError

# Seconds close() waits for a worker to exit after its pipe is closed.
_JOIN_SECONDS = 10.0


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) thread-count functions of a loaded OpenBLAS, found among
    the process's mapped objects; None when there is none."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    # numpy's own copy first, should another package have loaded one too.
    paths = sorted(paths, key=lambda path: ("numpy" not in path, path))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # Plain builds, 64-bit-integer builds, and the prefixed build numpy bundles.
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = ()
                set_.restype = None
                set_.argtypes = (ctypes.c_int,)
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread, when its count can be set; the previous
    count is restored on exit."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def shared_zeros(n: int, dtype) -> np.ndarray:
    """A zeroed 1-d array of `n` elements in an anonymous shared mapping, so
    a worker forked after it is made sees every later write to it."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(n * dtype.itemsize, 1)), dtype=dtype, count=n)


def worker_can_run() -> bool:
    """A worker needs fork, at least two usable CPUs and a settable OpenBLAS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return hasattr(os, "fork") and cpus >= 2 and _openblas_threads() is not None


class Local:
    """Answers each request with the handler, called in this process when
    its result is asked for."""

    def __init__(self, handler):
        self.handler = handler
        self._request = None

    def submit(self, request) -> None:
        self._request = request

    def result(self):
        request, self._request = self._request, None
        return self.handler(request)


def _serve(handler, conn, parent_end) -> None:
    """The worker's loop: one reply per request until the pipe reaches EOF."""
    parent_end.close()
    # An interrupt is the main process's to handle; it then closes the pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, handler(request))
        except MtslofError as exc:
            reply = (False, exc)
        except Exception as exc:  # noqa: BLE001 - sent back and raised in the main process
            reply = (False, WorkerError(f"{type(exc).__name__}: {exc}"))
        try:
            conn.send(reply)
        except OSError:
            return


class Worker:
    """A forked process that answers each request with the handler.

    Requests and replies alternate over one pipe. A reply that is an error
    is raised here with its own type; a worker that died raises
    `WorkerError` naming its exit code.
    """

    def __init__(self, handler):
        # Imported here: commands that fork no worker skip its import time.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._process = ctx.Process(target=_serve, args=(handler, child_end, self._conn),
                                    daemon=True)
        self._process.start()
        child_end.close()

    def _died(self) -> WorkerError:
        self._process.join(_JOIN_SECONDS)
        return WorkerError(f"the worker process exited with code {self._process.exitcode}")

    def submit(self, request) -> None:
        try:
            self._conn.send(request)
        except OSError:
            raise self._died() from None

    def result(self):
        try:
            ok, reply = self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if not ok:
            raise reply
        return reply

    def close(self) -> None:
        """Close the pipe, so the worker exits, and join it."""
        self._conn.close()
        self._process.join(_JOIN_SECONDS)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()


@contextlib.contextmanager
def runner(handler):
    """A runner for `handler` under a one-thread BLAS pin: a forked worker
    when one can run, else `Local`. The worker is joined on exit."""
    with one_blas_thread():
        if not worker_can_run():
            yield Local(handler)
            return
        worker = Worker(handler)
        try:
            yield worker
        finally:
            worker.close()
