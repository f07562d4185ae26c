"""Fixtures shared by the test modules."""

import importlib.util
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


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
