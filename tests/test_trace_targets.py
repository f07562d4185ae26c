"""The benchmark's span tracer (bench/spans.py) wraps package names by
lookup; every name it traces must still exist, or a traced benchmark run
breaks."""

import importlib.util
import os

from bicmlab import bicm, harness

SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "bench", "spans.py")


def test_tracer_installs_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for owner, attr, _, _ in spans.TARGETS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    assert harness.transmit_batch is bicm.transmit_batch
