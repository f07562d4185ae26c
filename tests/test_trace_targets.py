"""The benchmark's span tracer (bench/spans.py) wraps package names by
lookup; every name it traces must still exist, or a traced benchmark run
breaks, and inference must still pass through the traced layer names, or
the per-layer metrics read 0."""

import importlib.util
import os

import numpy as np
import pytest

from bicmlab import bicm, harness, sbnd
from bicmlab.gf2code import get_code
from bicmlab.modem import NoiseConfig, build_constellation
from bicmlab.neural import (
    RnnConfig,
    TransformerConfig,
    build_estimator,
)

SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "bench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for owner, attr, _, _ in spans.TARGETS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
    assert harness.transmit_batch is bicm.transmit_batch


def test_inference_runs_through_the_traced_layers(spans):
    rng = np.random.default_rng(0)
    n, k, frames = 16, 8, 300
    tcfg = TransformerConfig.for_code(n, k, embed_dim=8, heads=2, encoders=2)
    rcfg = RnnConfig.for_code(n, k, alpha=1, time_steps=2, depth=2)
    estimators = [
        harness.NeuralEstimator(build_estimator(tcfg, rng), n=n),
        harness.NeuralEstimator(build_estimator(rcfg, rng), n=n),
    ]
    stats = rng.normal(size=(frames, 2 * n - k))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for est in estimators:
            est.predict(stats)
    finally:
        tracer.uninstall()
    names = {s[2] for s in tracer.spans}
    for name in ("neural.encoder.forward", "neural.attention.forward",
                 "neural.layernorm.forward", "neural.dense.forward",
                 "neural.gru.forward"):
        assert name in names, name
    encoder_frames = sum(s[7] for s in tracer.spans
                         if s[2] == "neural.encoder.forward")
    assert encoder_frames == frames * tcfg.encoders


def test_sbnd_and_training_batches_record_the_statistic(spans):
    # decode_batch and make_training_batch form their inputs through the
    # traced statistic_batch, or sbnd.statistic_batch_ms reads 0 on the
    # SBND and training workloads
    code = get_code("polar_16_8")
    fb = bicm.transmit_batch(code, build_constellation("qam16"),
                             NoiseConfig.from_esn0_db(3.0),
                             np.random.default_rng(1), 64)

    class Zeros:
        def predict(self, stats):
            return np.zeros((stats.shape[0], code.k))

    for run in (lambda: sbnd.decode_batch(code, fb.llr, Zeros()),
                lambda: harness.make_training_batch(fb, code)):
        tracer = spans.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        names = [s[2] for s in tracer.spans]
        assert names.count("sbnd.statistic_batch") == 1, names
