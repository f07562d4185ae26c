"""Random streams: every draw of the package goes through harness's one
stream table, and the streams the table keys apart stay apart."""

import ast
import pathlib
import re

import numpy as np
import pytest

from bicmlab import harness
from bicmlab.bicm import transmit_batch
from bicmlab.gf2code import get_code
from bicmlab.modem import NoiseConfig, build_constellation

PACKAGE = pathlib.Path(harness.__file__).parent
STREAM_CALL = re.compile(r"\b(?:SeedSequence|default_rng)\(")
# the functions that may build a generator: harness's one stream helper, and
# checkpoint loading, which builds a network on default_rng(0) and at once
# overwrites every weight with the saved ones
ALLOWED = {("harness.py", "_stream"), ("neural/checkpoint.py", "_rebuild")}


def stream_builders():
    """(module path, innermost enclosing function) of each line under the
    package that builds a SeedSequence or calls default_rng."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text))
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if STREAM_CALL.search(line):
                around = [f for f in functions
                          if f.lineno <= lineno <= f.end_lineno]
                name = (max(around, key=lambda f: f.lineno).name
                        if around else None)
                found.add((path.relative_to(PACKAGE).as_posix(), name))
    return found


def test_only_the_stream_table_builds_generators():
    found = stream_builders()
    assert found <= ALLOWED
    # the scan sees what it guards
    assert ("harness.py", "_stream") in found


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4b: sweep chunk (1, j) and training step j share a stream"))
def test_training_steps_draw_no_sweep_chunk_messages():
    """At seeds 0-3, training step j's messages differ from the first
    messages of sweep chunk (i, j), for i, j < 8."""
    code = get_code("polar_64_32")
    const = build_constellation("qam16")
    noise = NoiseConfig.from_ebn0_db(5.0, code.rate, const.m)
    batch = harness.TrainConfig().batch_size
    shared = []
    for seed in range(4):
        for j in range(8):
            step = transmit_batch(code, const, noise, harness._stream(
                seed, "train batch", j), batch, demap_kind="maxlog").u
            for i in range(8):
                chunk = transmit_batch(code, const, noise, harness._stream(
                    seed, "chunk", i, j), harness.CHUNK_FRAMES,
                    demap_kind="maxlog").u
                if np.array_equal(step, chunk[:batch]):
                    shared.append((seed, i, j))
    assert shared == []
