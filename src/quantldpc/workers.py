"""Forked worker processes, the one parallel mechanism of the package.

:func:`forked` forks ``n`` workers (``fork`` start method, POSIX only)
that inherit the caller's state and serve ``fn`` over one pipe each:
``send(*args)`` runs ``fn(*args)``, ``reply()`` returns its result or
raises its exception, and :func:`ready` waits for a busy worker's reply.
A worker that dies reads as EOF and raises RuntimeError with its exit
code.  On exit each worker is sent ``None``, joined within :data:`GRACE_S`
seconds and then terminated, so none outlives the call.  A daemonic
process may not have children and gets one in-process worker instead,
which runs each request when its reply is read; a caller that would
rather do the work itself there asks :func:`can_fork` first.
"""

import os
import time
from contextlib import contextmanager, suppress
from functools import partial

#: worker count of every parallel path: one per usable core, at most 8 (a
#: bisection's decision tree rarely has more probes worth running ahead)
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 8)
#: seconds a worker gets to exit after its last request
GRACE_S = 1.0


def _serve(conn, fn):
    """A worker's request loop, until it receives None."""
    while (args := conn.recv()) is not None:
        try:
            reply = True, fn(*args)
        except Exception as exc:    # raised by the caller's reply()
            reply = False, exc
        conn.send(reply)


class _Forked:
    def __init__(self, ctx, fn):
        self.conn, theirs = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(theirs, fn), daemon=True)
        self.proc.start()
        theirs.close()      # a dead worker then reads as EOF on ``conn``

    def send(self, *args):
        self.conn.send(args)

    def reply(self):
        try:
            ok, value = self.conn.recv()
        except EOFError:
            self.proc.join(GRACE_S)
            raise RuntimeError(f"worker {self.proc.pid} exited "
                               f"(exit code {self.proc.exitcode})") from None
        if not ok:
            raise value
        return value


class _InProcess:
    conn = None

    def __init__(self, fn):
        self.fn = fn

    def send(self, *args):
        self.reply = partial(self.fn, *args)


def ready(busy):
    """The workers of ``busy`` whose reply can be read, at least one."""
    if busy[0].conn is None:        # in-process: the reply is made when read
        return busy
    from multiprocessing.connection import wait

    done = wait([w.conn for w in busy])
    return [w for w in busy if w.conn in done]


def can_fork():
    """Whether this process may have children (a daemonic one may not)."""
    # imported here: multiprocessing would add ~8 ms to every import
    import multiprocessing

    return not multiprocessing.current_process().daemon


@contextmanager
def forked(fn, n):
    """Yield ``n`` workers serving ``fn`` (one in-process in a daemonic process)."""
    import multiprocessing

    if n > 0 and not can_fork():
        yield [_InProcess(fn)]
        return
    ctx = multiprocessing.get_context("fork")
    forks = []
    try:
        for _ in range(n):
            forks.append(_Forked(ctx, fn))
        yield list(forks)       # the caller's copy: teardown needs every worker
    finally:
        for w in forks:
            with suppress(OSError):     # that worker is gone already
                w.conn.send(None)
        deadline = time.monotonic() + GRACE_S
        for w in forks:
            w.proc.join(max(0.0, deadline - time.monotonic()))
            if w.proc.exitcode is None:
                w.proc.terminate()
                w.proc.join()
            w.conn.close()
