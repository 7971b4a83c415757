"""Spread independent tasks over the usable cores: ``spread(fn, items)``.

``spread`` yields ``fn(item)`` for every item, in item order.  The calling
process and ``processes(len(items)) - 1`` helper processes forked from it run
one loop, ``work()``: take the next index from one shared counter, call
``fn`` on that item and hand ``(index, outcome)`` back.  A helper sends it
over its pipe; the caller files it and yields the results that are in, in
item order.  The caller does its own share, so no more processes compute
than there are cores.  A failed task leaves no task to take; the earliest
failure by index is raised after the results before it, once every helper
is joined.  A task taken by a helper that died before sending it raises
:class:`StateError` naming the task and the helpers' exit codes.

A helper works on its own copy of the caller's memory, so only what ``fn``
returns comes back: results are the same bits on any core count as long as
``fn`` reads its inputs and writes only what it returns.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .errors import StateError

T = TypeVar("T")
R = TypeVar("R")


def processes(tasks: int) -> int:
    """How many processes share ``tasks`` tasks: the usable cores divided by the
    BLAS threads of each process, at least 1 and at most ``tasks``.

    The BLAS thread count is the first positive one of OPENBLAS_NUM_THREADS,
    MKL_NUM_THREADS and OMP_NUM_THREADS; unset, it is one per core, the BLAS
    default.  On a 2-core Xeon host with OpenBLAS 0.3.31, two processes of two
    BLAS threads each made the ``run`` of the benchmark's cli_pipeline take
    7.0-8.4 s, against 4.8 s for one process and 2.6-3.1 s for two processes
    of one thread.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    counts = [os.environ.get(name, "") for name in
              ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")]
    threads = next((int(c) for c in counts if c.isdigit() and int(c) > 0), cores)
    return max(1, min(cores // threads, tasks))


def spread(fn: Callable[[T], R], items: Sequence[T],
           name: Optional[Callable[[T], str]] = None) -> Iterator[R]:
    """Yield ``fn(item)`` for each of ``items`` in order, computed by this
    process and forked helpers; ``name(item)`` names a lost task (default
    ``task <index>``)."""
    items = list(items)
    helpers = processes(len(items)) - 1
    if helpers < 1:
        yield from map(fn, items)
        return
    # imported here, so that importing dvfsflow stays as cheap as before
    from multiprocessing import connection, get_context

    # fork: a helper starts in milliseconds with the caller's modules and
    # inputs, where a spawned one took 0.5 s to import numpy on that host.  The
    # package runs no Python thread of its own, and OpenBLAS stops its threads
    # around a fork.
    ctx = get_context("fork")
    n = len(items)
    counter = ctx.Value("q", 0)
    caller = os.getpid()
    done, conns, procs = {}, [], []
    yielded = 0

    def work():
        # true in the caller, and in a helper until the caller is gone
        while caller in (os.getpid(), os.getppid()):
            with counter.get_lock():
                i = counter.value
                counter.value = min(i + 1, n)
            if i >= n:
                return
            try:
                outcome = fn(items[i]), None
            except Exception as exc:        # the caller raises it in item order
                counter.value = n           # a failed task leaves none to take
                outcome = None, exc
            yield i, outcome

    def helper(send) -> None:
        for sent in work():
            send(sent)

    def collect(timeout) -> None:
        for conn in connection.wait(conns, timeout):
            try:
                done.update([conn.recv()])
            except EOFError:        # that helper has finished
                conns.remove(conn)

    def ready():
        nonlocal yielded
        while yielded in done and done[yielded][1] is None:
            result = done.pop(yielded)[0]
            yielded += 1
            yield result

    sys.stdout.flush()      # a helper flushes its copy of these buffers when it exits
    sys.stderr.flush()
    try:
        for _ in range(helpers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=helper, args=(writer.send,), daemon=True)
            proc.start()
            writer.close()          # the helper holds the only write end: EOF when it ends
            procs.append(proc)
            conns.append(reader)
        for i, outcome in work():
            done[i] = outcome
            collect(0)
            yield from ready()
    finally:
        counter.value = n       # after an error in the caller no helper takes a task
        while conns:            # drain before joining, so that no helper blocks on a send
            collect(None)
        for proc in procs:
            proc.join()
    yield from ready()
    if yielded < n:
        if yielded in done:                 # the earliest failed task
            raise done[yielded][1]
        lost = name(items[yielded]) if name else f"task {yielded}"
        raise StateError(f"{lost} was lost: helper processes exited "
                         f"with codes {[proc.exitcode for proc in procs]}")
