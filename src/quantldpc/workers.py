"""Forked worker processes, the one parallel mechanism of the package.

:func:`forked` forks ``n`` workers (``fork`` start method, POSIX only)
that inherit the caller's state and serve ``fn`` over one pipe each:
``send(*args)`` runs ``fn(*args)``, ``reply()`` returns its
:class:`Report`, and :func:`ready` waits for a busy worker's reply.
A worker that dies reads as EOF and raises RuntimeError with its exit
code.  On exit each worker is sent ``None``, joined within :data:`GRACE_S`
seconds and then terminated, and its pipe and process handle are closed,
so neither a worker nor one of its descriptors outlives the call.  A
daemonic process may not have children and gets an empty team, so its
caller does the work itself.
"""

import os
import sys
import time
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass

#: worker count of every parallel path: one per usable core, at most 8 (a
#: bisection's decision tree rarely has more probes worth running ahead)
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 8)
#: seconds a worker gets to exit after its last request
GRACE_S = 1.0
_SHOWN = {}     # replayed's warning registry, as a module's is warnings.warn's


@dataclass(frozen=True)
class Report:
    """A unit of work's result or raised exception, and its unshown warnings."""

    value: object
    warned: tuple = ()


def recorded(fn, *args):
    """The :class:`Report` of ``fn(*args)``, each warning with its place and the
    first loaded module of its file, the name a module-scoped filter matches."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except Exception as exc:
            value = exc
    names = log and {getattr(m, "__file__", None): name
                     for name, m in reversed(list(sys.modules.items()))}
    return Report(value, tuple((w.message, w.category, w.filename, w.lineno,
                                names.get(w.filename)) for w in log))


def replayed(reports):
    """The values of a list of reports, as if their work ran here in turn: each
    report's warnings, shown where given, and the first exception raised after them."""
    for report in reports:
        for warned in report.warned:
            warnings.warn_explicit(*warned, registry=_SHOWN)
        if isinstance(report.value, Exception):
            raise report.value
    return [report.value for report in reports]


def spread(fn, team, requests):
    """Reports of ``fn(*args)`` for each ``args`` of ``requests``, in order, each
    but the first from its own worker of ``team``.  The first runs here, called
    directly: its warnings show as given, and its exception leaves at once."""
    busy = team[:len(requests) - 1]
    for worker, args in zip(busy, requests[1:]):
        worker.send(*args)
    return [Report(fn(*requests[0]))] + [w.reply() for w in busy]


def _serve(conn, fn):
    """A worker's request loop, until it receives None."""
    while (args := conn.recv()) is not None:
        conn.send(recorded(fn, *args))


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
            return self.conn.recv()
        except EOFError:
            self.proc.join(GRACE_S)
            raise RuntimeError(f"worker {self.proc.pid} exited "
                               f"(exit code {self.proc.exitcode})") from None


def ready(busy):
    """The workers of ``busy`` whose reply can be read, at least one."""
    from multiprocessing.connection import wait

    done = wait([w.conn for w in busy])
    return [w for w in busy if w.conn in done]


@contextmanager
def forked(fn, n):
    """Yield ``n`` workers serving ``fn`` (none in a daemonic process)."""
    # imported here: multiprocessing would add ~8 ms to every import
    import multiprocessing

    if multiprocessing.current_process().daemon:    # it may not have children
        n = 0
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
            w.proc.close()
