"""Fixed units of work, taken by any idle thread and handed back in order:
the sweep chunks, a chunk's decode blocks and a step's gradient shards."""

from __future__ import annotations

import threading
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

    This thread, while it waits for the next result, and helper tasks on
    pool each take the next unclaimed index, never `ahead` or more past the
    next one to hand back.  A unit's error is raised in place of its result
    once no unit is free.  Closing the generator early claims nothing more;
    it ends only once every claimed unit has ended.  This thread waits only
    while no unit is free, so a unit may run units on the same pool.
    """
    ends: dict[int, Future] = {}    # claimed units not yet handed back
    lock = threading.Lock()
    bound = count if ahead is None else ahead   # claims stay below it
    claimed = helpers = 0

    def work(caller: bool) -> bool:
        """Run the next free unit on this thread; False if none is free.
        The caller first gives pool a helper task per other free unit."""
        nonlocal claimed, helpers
        with lock:
            free = min(count, bound) - claimed
            while caller and pool is not None and helpers < free - 1:
                pool.submit(helper)
                helpers += 1
            if free <= 0:
                if not caller:
                    helpers -= 1    # the helper task returns
                return False
            claimed += 1
            index = claimed - 1
            end = ends[index] = Future()
        try:
            end.set_result(unit(index))
        except BaseException as exc:  # raised on the calling thread
            end.set_exception(exc)
        return True

    def helper() -> None:
        while work(caller=False):
            pass

    try:
        for index in range(count):
            while ((end := ends.get(index)) is None or not end.done()
                   or end.exception()) and work(caller=True):
                pass
            result = ends.pop(index).result()
            with lock:
                bound += 1
            yield result
    finally:
        with lock:
            bound = 0
        wait(list(ends.values()))
        unit = None  # a helper task still queued holds no unit data
