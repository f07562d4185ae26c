"""Golden counts: exact totals of fixed-budget sweep points, and the rows
of a small channel battery.

A (config, seed) pair fixes every count, for any worker count.  Any change
to the numerics of the transmit chain, the demappers or the decoders, or to
the key of any random stream, moves these numbers; such a change must
re-record them on purpose and say why.
"""

import numpy as np
import pytest

from bicmlab import harness
from bicmlab.gf2code import get_code
from bicmlab.harness import (ExperimentConfig, StopRule, run_point,
                             verify_channel)
from bicmlab.neural import RnnConfig, build_estimator, save_checkpoint

HARD_PINV = dict(code="polar_16_8", constellation="qam16", decoder="hard-pinv",
                 ebn0_db=(4.0,))

# (config fields, (frames, bit_errors, frame_errors, ML-bound bit errors)) of
# the last point of each grid; one chunk unless the fields set a stop
GOLDEN = {
    "hard-pinv": (HARD_PINV, (2048, 5285, 1317, None)),
    # grid point 2, chunks 0 and 1: pins both parts of the chunk key, which
    # every one-point case keeps at point 0
    "hard-pinv-point-2": (
        dict(HARD_PINV, ebn0_db=(2.0, 3.0, 4.0),
             stop=StopRule(min_frame_errors=0,
                           max_frames=2 * harness.CHUNK_FRAMES)),
        (4096, 10471, 2651, None)),
    # pins the interleaver stream
    "hard-pinv-pinned": (dict(HARD_PINV, interleaver="pinned",
                              interleaver_seed=3),
                         (2048, 5537, 1424, None)),
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
    net = build_estimator(
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
    cfg = ExperimentConfig(**{
        "stop": StopRule(min_frame_errors=0, max_frames=harness.CHUNK_FRAMES),
        "seed": 7, "workers": workers, **fields})
    rec = run_point(cfg, cfg.ebn0_db[-1])
    ml_bits = None
    if rec.ml_bound_ber is not None:
        ml_bits = round(rec.ml_bound_ber * rec.frames * get_code(cfg.code).k)
    assert (rec.frames, rec.bit_errors, rec.frame_errors, ml_bits) == want


# verify_channel(seed=0, symmetry_bits=120_000, corr_frames=2_000): each row's
# value to 12 significant digits.  The battery demaps max-log only, so no
# value goes through numpy's exp.
BATTERY = [
    ("bpsk@0dB crossover vs closed form (|dev|/sigma)", "0.723974567542"),
    ("psk8@3dB symmetry max |z|", "1.39866614039"),
    ("psk8@3dB crossover vs closed form (|dev|/sigma)", "0.0797792034437"),
    ("psk8@3dB flip correlation max |corr|", "0.0698044694841"),
    ("psk8@6dB symmetry max |z|", "1.51056297115"),
    ("psk8@6dB crossover vs closed form (|dev|/sigma)", "1.55982038649"),
    ("psk8@6dB flip correlation max |corr|", "0.0760445096715"),
    ("qam16@0dB symmetry max |z|", "17.973552954"),
    ("qam16@0dB flip correlation max |corr|", "0.081629837165"),
    ("qam16@6dB symmetry max |z|", "2.33193385212"),
    ("qam16@6dB flip correlation max |corr|", "0.0717745222823"),
]


def test_battery_rows():
    rows = verify_channel(seed=0, symmetry_bits=120_000, corr_frames=2_000)
    assert [(row.name, f"{row.value:.12g}") for row in rows] == BATTERY
