"""Golden counts: exact totals of one-chunk, fixed-budget sweep points.

A (config, seed) pair fixes every count, for any worker count.  Any change
to the numerics of the transmit chain, the demappers or the decoders moves
these numbers; such a change must re-record them on purpose and say why.
"""

import numpy as np
import pytest

from bicmlab import harness
from bicmlab.gf2code import get_code
from bicmlab.harness import ExperimentConfig, StopRule, run_point
from bicmlab.neural import RnnConfig, build_rnn_estimator, save_checkpoint

HARD_PINV = dict(code="polar_16_8", constellation="qam16", decoder="hard-pinv",
                 ebn0_db=(4.0,))

# (config fields, (frames, bit_errors, frame_errors, ML-bound bit errors))
GOLDEN = {
    "hard-pinv": (HARD_PINV, (2048, 5285, 1317, None)),
    # one hard-pinv point per (constellation, demap) pair the others lack;
    # n = 16 is no multiple of m = 3, so 8-PSK pads
    "hard-pinv-psk8-exact": (dict(HARD_PINV, constellation="psk8",
                                  demap="exact"),
                             (2048, 4792, 1216, None)),
    "hard-pinv-psk8-maxlog": (dict(HARD_PINV, constellation="psk8",
                                   demap="maxlog"),
                              (2048, 4792, 1216, None)),
    "hard-pinv-qam16-maxlog": (dict(HARD_PINV, demap="maxlog"),
                               (2048, 5293, 1318, None)),
    "hard-pinv-qpsk-exact": (dict(HARD_PINV, constellation="qpsk",
                                  demap="exact"),
                             (2048, 3172, 789, None)),
    "hard-pinv-bpsk-maxlog": (dict(HARD_PINV, constellation="bpsk",
                                   demap="maxlog"),
                              (2048, 3012, 741, None)),
    # an estimator that predicts no flip leaves SBND at the hard pseudo-inverse
    "sbnd-zero-head": (dict(HARD_PINV, decoder="sbnd"),
                       (2048, 5285, 1317, None)),
    "map": (dict(code="hamming_7_4", constellation="bpsk", decoder="map",
                 ebn0_db=(2.0,)),
            (2048, 218, 120, None)),
    "osd2": (dict(code="polar_32_16", constellation="qpsk", decoder="osd",
                  osd_order=2, demap="maxlog", ebn0_db=(3.0,)),
             (2048, 168, 59, 168)),
    # weight-3 flips: guards their pruning, which order 2 never reaches
    "osd3": (dict(code="polar_32_16", constellation="qpsk", decoder="osd",
                  osd_order=3, demap="maxlog", ebn0_db=(2.0,)),
             (2048, 537, 159, 537)),
    # the configuration of the osd2-qpsk benchmark workload
    "osd2-64": (dict(code="polar_64_32", constellation="qpsk", decoder="osd",
                     osd_order=2, demap="maxlog", ebn0_db=(3.0,)),
                (2048, 148, 33, 148)),
    # k = 64: one 64-bit word per generator column in the OSD elimination
    "osd1": (dict(code="polar_128_64", constellation="qam16", decoder="osd",
                  osd_order=1, demap="exact", ebn0_db=(4.0,)),
             (2048, 5066, 636, 1240)),
}


@pytest.fixture(scope="module")
def zero_head_checkpoint(tmp_path_factory):
    """A small GRU estimator for polar_16_8 whose head outputs 0 logits."""
    code = get_code(HARD_PINV["code"])
    net = build_rnn_estimator(
        RnnConfig.for_code(code.n, code.k, alpha=1, time_steps=1, depth=1),
        np.random.default_rng(0))
    net.head.w.value[:] = 0.0
    net.head.b.value[:] = 0.0
    path = tmp_path_factory.mktemp("golden") / "zero_head.ckpt"
    save_checkpoint(path, net)
    return str(path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(name, workers, zero_head_checkpoint, cores):
    cores(workers)
    fields, want = GOLDEN[name]
    if fields["decoder"] == "sbnd":
        fields = dict(fields, checkpoint=zero_head_checkpoint)
    cfg = ExperimentConfig(
        stop=StopRule(min_frame_errors=0, min_bit_errors=0,
                      max_frames=harness.CHUNK_FRAMES),
        seed=7, workers=workers, **fields)
    rec = run_point(cfg, cfg.ebn0_db[0], point_index=0)
    ml_bits = None
    if rec.ml_bound_ber is not None:
        ml_bits = round(rec.ml_bound_ber * rec.frames * get_code(cfg.code).k)
    assert (rec.frames, rec.bit_errors, rec.frame_errors, ml_bits) == want
