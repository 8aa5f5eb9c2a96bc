"""Helper threads that run numpy work beside the calling thread.

numpy releases the interpreter lock while a generator fills an array,
whether with doubles (``Generator.random``) or with raw 64-bit words
(``BitGenerator.random_raw``, as ``sampling.draw_rows`` draws rows), and inside
most ufuncs and reductions, so blocks of such work can run on every CPU at
once.  ``run_workers`` runs ``work(0)`` on the calling thread
and ``work(1)``, ..., ``work(k-1)`` on daemon helper threads.  Helpers are
a process-wide resource: they start on first use, one per worker beyond
the first, and then wait for the next call.  Importing this module starts
no thread.

``map_trials`` runs the independent trials of an experiment on the same
helpers: trial t draws only from its own substream, so the trials can run
in any order and on any thread, and the results come back in trial order.
Each worker builds one generator per call and re-keys it to the start of
each trial's substream.
The caller fills its caches and totals from them in one loop over that
list, so a report does not depend on the number of CPUs.
Work inside a trial that calls ``run_workers`` while the trials hold the
helpers runs on its own thread alone.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

import numpy as np

from .sampling import RngStream


def cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def map_trials(
    trials: int, stream: RngStream, fn: Callable[[int, np.random.Generator], object]
) -> list:
    """``[fn(0, rng_0), ..., fn(trials - 1, rng_{trials-1})]``, on up to
    ``cpus()`` workers, where rng_t stands at the start of
    ``stream.substream(t)``.

    Each worker builds one generator and re-keys it for every trial it
    runs (``RngStream.rekey``), so ``fn`` must not keep ``rng`` after it
    returns.  Workers claim trial indices one at a time, in increasing
    order, under a lock, and each result lands at its trial's index.
    ``fn`` may run on any thread, so it must draw only from ``rng`` and
    write nothing that another trial reads.  Once a trial raises, no
    further trial is claimed; every claimed trial below it finishes, and
    the error of the lowest failing trial is raised, the one a loop over
    the trials in order would raise.  With fewer than two trials or one
    CPU the loop runs on the calling thread and starts no helper.
    """
    k = min(cpus(), trials)
    if k < 2:
        rng = stream.generator()
        return [fn(t, stream.substream(t).rekey(rng)) for t in range(trials)]
    results: list = [None] * trials
    errors: dict[int, BaseException] = {}
    claim = threading.Lock()
    claimed = 0

    def work(_: int) -> None:
        nonlocal claimed
        rng = stream.generator()
        while True:
            with claim:
                t = claimed
                if errors or t == trials:
                    return
                claimed += 1
            try:
                results[t] = fn(t, stream.substream(t).rekey(rng))
            except BaseException as exc:
                with claim:
                    errors[t] = exc
                return

    run_workers(k, work)
    if errors:
        raise errors[min(errors)]
    return results
