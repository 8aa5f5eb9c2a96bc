"""Helper threads that run numpy work beside the calling thread.

numpy releases the interpreter lock inside ``Generator.random(out=...)``
and inside most ufuncs and reductions, so blocks of such work can run on
every CPU at once.  ``run_workers`` runs ``work(0)`` on the calling thread
and ``work(1)``, ..., ``work(k-1)`` on daemon helper threads.  Helpers are
a process-wide resource: they start on first use, one per worker beyond
the first, and then wait for the next call.  Importing this module starts
no thread.  ``skip_doubles`` moves a Philox generator forward by a number
of draws, so that each worker can draw from its own offset of one stream.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

import numpy as np


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def skip_doubles(gen: np.random.Generator, d: int) -> None:
    """Move a Philox generator, state and all, as d ``gen.random()`` calls would.

    Philox makes 4 values per counter step and buffers them.  ``advance``
    moves the counter by whole steps past the buffered values, but drops
    the buffer and the saved 32-bit half-word, so it stops short of the
    last 1-4 values, which are drawn to fill the buffer, and the half-word
    is put back.
    """
    if not d:
        return
    bg = gen.bit_generator
    state = bg.state
    buffered = 4 - state["buffer_pos"]
    if d > buffered:
        steps = (d - buffered - 1) // 4
        bg.advance(steps)
        d -= buffered + 4 * steps
        if state["has_uint32"]:
            after = bg.state
            after["has_uint32"], after["uinteger"] = 1, state["uinteger"]
            bg.state = after
    gen.random(d)


class _Helper:
    """A daemon thread that runs one posted ``work(i)`` call at a time."""

    def __init__(self, i: int):
        self.i = i
        self._posted = threading.Event()
        self._done = threading.Event()
        self._work: Callable[[int], object] | None = None
        self._outcome: tuple[object, BaseException | None] = (None, None)
        threading.Thread(target=self._loop, name=f"chainocrs-worker-{i}", daemon=True).start()

    def post(self, work: Callable[[int], object]) -> None:
        self._work = work
        self._done.clear()
        self._posted.set()

    def wait(self) -> tuple[object, BaseException | None]:
        self._done.wait()
        return self._outcome

    def _loop(self) -> None:
        while True:
            self._posted.wait()
            self._posted.clear()
            try:
                self._outcome = self._work(self.i), None
            except BaseException as exc:
                self._outcome = None, exc
            self._work = None
            self._done.set()


#: Helper threads, started on first use; worker i > 0 is ``_helpers[i - 1]``.
_helpers: list[_Helper] = []
_helpers_free = threading.Lock()


def _reset_helpers() -> None:
    # A forked child has none of its parent's threads.
    global _helpers_free
    _helpers.clear()
    _helpers_free = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_helpers)


def run_workers(k: int, work: Callable[[int], object]) -> list:
    """Run ``work(0)`` on this thread and ``work(1)``, ..., ``work(k-1)`` on
    helper threads; return their results once all have returned.

    The first error, in worker order, is raised only after every worker
    has returned.  While another thread uses the helpers, ``work(0)`` runs
    alone, so ``work`` must not rely on its siblings to finish the job.
    """
    if not _helpers_free.acquire(blocking=False):
        return [work(0)]
    try:
        while len(_helpers) < k - 1:
            _helpers.append(_Helper(len(_helpers) + 1))
        helpers = _helpers[: k - 1]
        for h in helpers:
            h.post(work)
        try:
            outcomes = [(work(0), None)]
        except BaseException as exc:
            outcomes = [(None, exc)]
        outcomes += [h.wait() for h in helpers]
    finally:
        _helpers_free.release()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]
