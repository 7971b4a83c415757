"""Spread independent tasks over the usable cores: ``spread(fn, items)``.

``spread`` yields ``fn(item)`` for every item, in item order.  Each task runs
in a process of its own, forked from the caller, which sends ``(result,
error)`` over its pipe and exits.  At most ``processes(len(items))`` such
processes run at a time, started in item order; the caller only starts them,
files their outcomes and yields the results in item order.  Once it has read
a failure it starts no further task, and it raises the earliest failure by
index after the results before it, once every started process is joined.  A
process that exits without sending its outcome loses its task: that raises
:class:`StateError` naming the task and the process's exit code.

A process works on its own copy of the caller's memory, so only what ``fn``
returns comes back: results are the same bits on any core count as long as
``fn`` reads its inputs and writes only what it returns.
"""

from __future__ import annotations

import os
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
    """Yield ``fn(item)`` for each of ``items`` in order, each computed in a
    process of its own; ``name(item)`` names a lost task (default
    ``task <index>``)."""
    items = list(items)
    slots = processes(len(items))
    if slots < 2:
        yield from map(fn, items)
        return
    # imported here, so that importing dvfsflow stays as cheap as before
    from multiprocessing import connection, get_context

    # fork: a process starts in milliseconds with the caller's modules and
    # inputs, where a spawned one took 0.5 s to import numpy on that host.  The
    # package runs no Python thread of its own, and OpenBLAS stops its threads
    # around a fork.  Each fork flushes sys.stdout and sys.stderr first, so no
    # process inherits lines the caller has printed but not yet written.
    ctx = get_context("fork")

    def task(i, send) -> None:
        try:
            outcome = fn(items[i]), None
        except Exception as exc:        # the caller raises it in item order
            outcome = None, exc
        send(outcome)

    n = len(items)
    running, done = {}, {}      # reader: (index, process); index: (result, error)
    started = yielded = 0
    try:
        while yielded < n:
            if yielded in done:
                result, error = done.pop(yielded)
                if error is not None:
                    raise error
                yielded += 1
                yield result
                continue
            failed = any(error is not None for _, error in done.values())
            while not failed and started < n and len(running) < slots:
                reader, writer = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=task, args=(started, writer.send), daemon=True)
                proc.start()
                writer.close()      # the process holds the only write end: EOF if it dies
                running[reader] = started, proc
                started += 1
            for reader in connection.wait(list(running)):
                i, proc = running.pop(reader)
                try:
                    done[i] = reader.recv()
                except EOFError:        # it exited without sending one
                    proc.join()
                    lost = name(items[i]) if name else f"task {i}"
                    done[i] = None, StateError(f"{lost} was lost: its process exited "
                                               f"with code {proc.exitcode}")
                proc.join()
                reader.close()
    finally:        # every started process is joined before a failure is raised
        for reader, (_, proc) in running.items():
            try:
                reader.recv()       # so that no process blocks on its send
            except EOFError:
                pass
            proc.join()
