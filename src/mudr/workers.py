"""One job's contiguous ranges split over forked worker processes.

``split(work, bounds, what)`` runs ``work(first, stop)`` over each range
``[bounds[i], bounds[i + 1])``: the calling process runs the first range,
and an ``os.fork``ed child each other one. ``work`` returns nothing; a
child's results reach the caller only through memory the caller shared
before the fork (an anonymous ``mmap``). No child outlives the call.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
import warnings


class WorkerError(RuntimeError):
    """A forked worker failed; the message names its range."""


def count(units: int, least: int) -> int:
    """Workers for a job of ``units`` units: one per usable core, and at
    most one per ``least`` units, so a fork never costs more than it saves.
    1 where ``os.fork`` or ``os.sched_getaffinity`` is missing, and while
    another Python thread is alive: a forked child would deadlock on any
    lock that thread holds."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), units // least))


def edges(units: int, workers: int, align: int = 1) -> list[int]:
    """Bounds of ``workers`` contiguous ranges over ``units`` units; every
    inner bound is a multiple of ``align``."""
    bounds = [units * i // workers // align * align for i in range(workers)]
    bounds.append(units)
    return bounds


def split(work, bounds: list[int], what: str) -> None:
    """Run ``work(first, stop)`` over every range between consecutive
    ``bounds``: the first in this process, each other in a forked child.

    Raises ``WorkerError`` naming ``what`` and the range of a child that
    failed or could not be started, after every child has exited, so the
    caller never reads a range a child left unwritten. On an error in this
    process every child is killed first; every child is reaped before the
    call returns or raises.
    """
    children: dict[int, tuple[int, int]] = {}  # pid -> first, stop
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while other threads run. No other
            # Python thread is alive where count() allows a fork, so those
            # are numpy's BLAS threads, and the children never call BLAS.
            warnings.filterwarnings(
                "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
            )
            for first, stop in zip(bounds[1:-1], bounds[2:]):
                try:
                    pid = os.fork()
                except OSError as exc:  # out of processes
                    raise WorkerError(
                        f"{what} [{first}, {stop}) could not start a worker process ({exc})"
                    ) from exc
                if pid == 0:
                    # the child never returns into the caller's stack
                    code = 1
                    try:
                        work(first, stop)
                        code = 0
                    except BaseException:
                        traceback.print_exc()
                        raise
                    finally:
                        os._exit(code)
                children[pid] = (first, stop)
        work(bounds[0], bounds[1])
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children}
    for pid, code in codes.items():
        if code != 0:
            first, stop = children[pid]
            raise WorkerError(
                f"{what} [{first}, {stop}) failed in worker process {pid} "
                f"(exit code {code})"
            )
