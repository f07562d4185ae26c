"""units.run_in_order: every index once, results in order, the claim
bound, early stops, errors, nested runs, and no thread at one worker."""

import sys
import threading
import time
import weakref
from contextlib import closing

import numpy as np
import pytest

from bicmlab.units import run_in_order, thread_pool


def within(fn, seconds=30.0):
    """fn() on a daemon thread: a hang fails the test after seconds."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.parametrize("ahead", [None, 1, 3])
@pytest.mark.parametrize("threads", [0, 1, 2, 3, 4])
def test_every_index_runs_once_on_fast_switches(threads, ahead):
    # a 1 us switch interval makes a lost or doubled claim likely
    ran = []

    def unit(i):
        ran.append(i)
        return i * i

    def run():
        with thread_pool(threads) as pool:
            return list(run_in_order(300, unit, pool, ahead))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = within(run)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(300)]
    assert sorted(ran) == list(range(300))


def test_results_in_index_order_whatever_ends_first():
    sleeps = np.random.default_rng(11).uniform(0, 0.01, size=40)
    ended = []

    def unit(i):
        time.sleep(sleeps[i])
        ended.append(i)
        return i

    with thread_pool(3) as pool:
        got = within(lambda: list(run_in_order(40, unit, pool)))
    assert got == list(range(40))
    assert ended != sorted(ended)


@pytest.mark.parametrize("ahead", [1, 2, 5])
def test_no_claim_ahead_or_more_past_the_next_result(ahead):
    # unit 0 runs long on this thread; idle pool threads must not run far
    # past it
    started = []

    def unit(i):
        started.append(i)
        time.sleep(0.05 if i == 0 else 0.001)
        return i

    def highest_started_per_result():
        return [max(started) for _ in run_in_order(30, unit, pool, ahead)]

    with thread_pool(3) as pool:
        seen = within(highest_started_per_result)
    # handing back result i lets index i + ahead start before i is seen
    assert all(top <= i + ahead for i, top in enumerate(seen))
    assert sorted(started) == list(range(30))


def test_early_stop_claims_nothing_more():
    started, ended = [], []

    def unit(i):
        started.append(i)
        time.sleep(0.05)
        ended.append(i)
        return i

    def first_two():
        with closing(run_in_order(100, unit, pool, ahead=4)) as results:
            for i in results:
                if i == 1:
                    break
        return len(started), len(ended)

    with thread_pool(2) as pool:
        n_started, n_ended = within(first_two)
        # every claimed unit ended before the generator closed
        assert n_started == n_ended
        # two units handed back, and at most ahead = 4 claimed past them
        assert 2 <= n_started <= 2 + 4
        time.sleep(0.2)
        assert len(started) == n_started


def test_a_huge_count_costs_only_what_is_claimed():
    # a sweep point's budget may run to millions of chunks, of which it
    # often needs one
    def first_three():
        with closing(run_in_order(10 ** 12, lambda i: i, None, 1)) as results:
            return [next(results) for _ in range(3)]

    assert within(first_three, 5.0) == [0, 1, 2]


def test_lowest_failing_index_raised_after_slower_units():
    ended = []

    def unit(i):
        # 3 fails first, 1 fails later, 2 succeeds last
        time.sleep({0: 0.0, 1: 0.05, 2: 0.1, 3: 0.0}[i])
        ended.append(i)
        if i in (1, 3):
            raise RuntimeError(f"unit {i} failed")
        return i

    with thread_pool(3) as pool:
        with pytest.raises(RuntimeError, match="unit 1 failed"):
            within(lambda: list(run_in_order(4, unit, pool)))
    assert sorted(ended) == [0, 1, 2, 3]


def test_nested_units_on_a_one_thread_pool_finish():
    with thread_pool(1) as pool:
        def outer(i):
            return sum(run_in_order(3, lambda j: 10 * i + j, pool))

        got = within(lambda: list(run_in_order(4, outer, pool, ahead=2)))
    assert got == [sum(10 * i + j for j in range(3)) for i in range(4)]


@pytest.mark.parametrize("ahead", [None, 1, 2, 5])
@pytest.mark.parametrize("threads", [0, 1, 2, 3, 4])
def test_nested_runs_on_fast_switches(threads, ahead):
    # a queued unit may be cancelled and run by a waiting thread just as a
    # pool thread dequeues it; a 1 us switch interval makes that race likely
    ran = []

    def run():
        with thread_pool(threads) as pool:
            def outer(i):
                def inner(j):
                    ran.append((i, j))
                    return (i, j)

                return list(run_in_order(3, inner, pool))

            return list(run_in_order(40, outer, pool, ahead))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = within(run)
    finally:
        sys.setswitchinterval(interval)
    assert got == [[(i, j) for j in range(3)] for i in range(40)]
    assert sorted(ran) == [(i, j) for i in range(40) for j in range(3)]


def test_failed_nested_run_on_the_only_pool_thread_raises():
    # outer unit 1 runs on the pool's only thread, and its block 0 fails
    # while block 1 is still queued on that same thread
    outer_1_threads = []

    def outer(i):
        if i == 0:
            while not outer_1_threads:
                time.sleep(0.001)
            return 0
        outer_1_threads.append(threading.get_ident())

        def block(j):
            if j == 0:
                raise RuntimeError("block 0 failed")
            return j

        return sum(run_in_order(2, block, pool))

    def run():
        with pytest.raises(RuntimeError, match="block 0 failed"):
            list(run_in_order(2, outer, pool))
        return threading.get_ident()

    with thread_pool(1) as pool:
        caller = within(run)
    assert len(outer_1_threads) == 1 and outer_1_threads[0] != caller


def test_closed_run_releases_its_unit():
    # units queued behind a busy pool thread are cancelled on close, and
    # their tasks, still in the pool's queue, must not hold the unit's data
    data = np.zeros(1000)
    data_ref = weakref.ref(data)
    busy = threading.Event()
    release = threading.Event()

    def hold():
        busy.set()
        release.wait(30.0)

    with thread_pool(1) as pool:
        pool.submit(hold)
        assert busy.wait(10.0)
        results = run_in_order(4, lambda i, data=data: i + data[0], pool)
        assert next(results) == 0
        results.close()
        del data, results
        try:
            assert data_ref() is None
        finally:
            release.set()


def test_no_thread_at_one_worker(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with thread_pool(0) as pool:
        assert pool is None
        got = list(run_in_order(5, lambda i: threading.current_thread(),
                                pool))
    assert got == [threading.current_thread()] * 5
