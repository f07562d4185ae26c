"""Golden counts: exact totals of one-chunk, fixed-budget sweep points.

A (config, seed) pair fixes every count, for any worker count.  Any change
to the numerics of the transmit chain, the demappers or the decoders moves
these numbers; such a change must re-record them on purpose and say why.
"""

import pytest

from bicmlab import harness
from bicmlab.gf2code import get_code
from bicmlab.harness import ExperimentConfig, StopRule, run_point

# (config fields, (frames, bit_errors, frame_errors, ML-bound bit errors))
GOLDEN = {
    "hard-pinv": (dict(code="polar_16_8", constellation="qam16",
                       decoder="hard-pinv", ebn0_db=(4.0,)),
                  (2048, 5285, 1317, None)),
    "map": (dict(code="hamming_7_4", constellation="bpsk", decoder="map",
                 ebn0_db=(2.0,)),
            (2048, 218, 120, None)),
    "osd2": (dict(code="polar_32_16", constellation="qpsk", decoder="osd",
                  osd_order=2, demap="maxlog", ebn0_db=(3.0,)),
             (2048, 168, 59, 168)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(name, workers):
    fields, want = GOLDEN[name]
    cfg = ExperimentConfig(
        stop=StopRule(min_frame_errors=0, min_bit_errors=0,
                      max_frames=harness.CHUNK_FRAMES),
        seed=7, workers=workers, **fields)
    rec = run_point(cfg, cfg.ebn0_db[0], point_index=0)
    ml_bits = None
    if rec.ml_bound_ber is not None:
        ml_bits = round(rec.ml_bound_ber * rec.frames * get_code(cfg.code).k)
    assert (rec.frames, rec.bit_errors, rec.frame_errors, ml_bits) == want
