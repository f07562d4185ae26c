"""Fixtures shared by the test modules."""

import faulthandler
import importlib.util
import json
import os
import pathlib
import sys
import threading
import time

import pytest

from bicmlab import harness

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def pytest_unconfigure(config):
    """Exit with status 1 and every thread's stack if a thread other than
    the main one is still alive 5 s after the run.  The interpreter's exit
    joins every non-daemon thread and every pool thread, daemon or not (a
    pool made on a daemon thread, as in `within`, has daemon threads), so
    a deadlocked one would hang pytest instead of failing it: the time
    limits of `within` and `run_point_within` bound a run, not the pool it
    runs on."""
    def left():
        return [t for t in threading.enumerate()
                if t is not threading.main_thread()]

    deadline = time.monotonic() + 5.0
    while left() and time.monotonic() < deadline:
        time.sleep(0.01)
    if stuck := left():
        sys.stdout.flush()
        sys.stderr.write(f"threads still alive after the run: "
                         f"{', '.join(t.name for t in stuck)}\n")
        sys.stderr.flush()
        faulthandler.dump_traceback(all_threads=True)
        os._exit(1)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more threads alive than it started with,
    once they have had 2 s to end."""
    before = threading.active_count()
    yield
    deadline = time.monotonic() + 2.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    if threading.active_count() > before:
        pytest.fail(f"{threading.active_count() - before} thread(s) still "
                    f"alive: {threading.enumerate()}")


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes harness.available_cores report n cores, so a test
    can run the pool threads it exercises on any machine."""
    def set_cores(count):
        monkeypatch.setattr(harness, "available_cores", lambda: count)

    return set_cores


@pytest.fixture
def load_tool(monkeypatch):
    """Import tools/<name>.py, undoing its sys.path and BLAS-thread
    environment changes after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def load(name):
        spec = importlib.util.spec_from_file_location(name,
                                                      TOOLS / f"{name}.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    return load


@pytest.fixture
def edit_header():
    """edit_header(path, edit) replaces the JSON header of the checkpoint at
    path by edit(header), keeping the data section and so its sha256."""
    def edit_header(path, edit):
        raw = pathlib.Path(path).read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        hbytes = json.dumps(edit(json.loads(raw[12:12 + hlen]))).encode()
        pathlib.Path(path).write_bytes(
            raw[:8] + len(hbytes).to_bytes(4, "little") + hbytes
            + raw[12 + hlen:])

    return edit_header
