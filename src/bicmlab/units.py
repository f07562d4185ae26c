"""Fixed units of work, run on a thread pool and handed back in order:
the sweep chunks, a chunk's decode blocks and a step's gradient shards."""

from __future__ import annotations

from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext


@contextmanager
def thread_pool(threads: int):
    """A pool of `threads` threads, shut down on exit; None at 0."""
    with ThreadPoolExecutor(threads) if threads else nullcontext() as pool:
        yield pool


def run_in_order(count: int, unit, pool: Executor | None = None,
                 ahead: int | None = None):
    """Yield unit(0), ..., unit(count - 1) in index order.

    The units after the next one to hand back, fewer than `ahead` past it,
    are queued on pool.  This thread runs the next one itself unless a pool
    thread has started it; while it waits on a started unit, it runs each
    later queued unit that it can still cancel.  A unit's error is raised
    in place of its result.  An error or closing the generator cancels
    every queued unit and ends once every started one has ended.  This
    thread waits only on started units, so a unit may run units on the
    same pool.
    """
    queued: dict[int, Future] = {}  # queued or stolen, not yet handed back
    # queued indices stay below index + bound; without a pool, none is
    bound = 1 if pool is None else count if ahead is None else ahead

    def task(index: int):
        return unit(index)  # unit is looked up only when the task starts

    def run(index: int) -> Future:
        """unit(index) on this thread, its result or error in a Future."""
        end = Future()
        try:
            end.set_result(unit(index))
        except BaseException as exc:  # raised at its own index
            end.set_exception(exc)
        return end

    try:
        for index in range(count):
            end = queued.pop(index, None)
            # queued now holds index + 1 up to the queue's end
            for later in range(index + 1 + len(queued),
                               min(count, index + bound)):
                queued[later] = pool.submit(task, later)
            if end is None or end.cancel():
                end = run(index)
            for later, queued_end in queued.items():
                if end.done():
                    break
                if queued_end.cancel():
                    queued[later] = run(later)
            yield end.result()
    finally:
        # a cancelled future is not done until a pool thread dequeues it
        wait([end for end in queued.values() if not end.cancel()])
        unit = None  # a cancelled task still queued holds no unit data
