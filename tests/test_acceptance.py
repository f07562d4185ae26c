"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one pass/fail line so the suite output doubles as the
acceptance report.  Run with `pytest tests/test_acceptance.py -v -s`.

Known red: the 16-QAM binary-symmetry z-test at Es/N0 = 0 dB.  The
magnitude-bit flip probabilities genuinely differ by ~0.10 at that SNR
(the inner points lose far more tail mass across the opposite threshold
than the outer points), which is ~53 sigma at the mandated sample size,
so the |z| <= 4 bound cannot hold there.  The check runs as specified and
fails honestly; see test_criterion_2_symmetry_qam16_at_0db.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bicmlab.bicm import (
    bsc_symmetry_ztest,
    channel_statistics,
    predicted_crossover,
    transmit_batch,
)
from bicmlab.gf2code import all_messages, builtin_code_names, get_code, hamming_7_4
from bicmlab.harness import (
    ExperimentConfig,
    StopRule,
    TrainConfig,
    run_point,
    train_estimator,
)
from bicmlab.modem import NoiseConfig, build_constellation, hard_split
from bicmlab.neural import (
    RnnConfig,
    TransformerConfig,
    build_estimator,
)
from bicmlab.refdec import map_decode, ml_bound_update, osd_decode
from oracles import gradient_check, map_noise_equivalence

MASTER_SEED = 20240

def _rng(*key):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=MASTER_SEED, spawn_key=key))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -------------------------------------------------------------------------
# 1. parameter-count reproduction
# -------------------------------------------------------------------------

def test_criterion_1_parameter_counts():
    expected = {
        ("rnn", 128, 64): 25_512_064,
        ("rnn", 64, 32): 6_381_632,
        ("transformer", 128, 64): 2_020_033,
        ("transformer", 64, 32): 1_998_497,
    }
    rng = _rng(1)
    ok = True
    details = []
    for (arch, n, k), want in expected.items():
        if arch == "rnn":
            cfg = RnnConfig.for_code(n, k, alpha=5, time_steps=5, depth=5)
            formula = cfg.weights()
            enumerated = build_estimator(cfg, rng).num_params()
            margin = abs(formula - cfg.approx_weights()) / formula
            ok &= margin < 0.005
        else:
            cfg = TransformerConfig.for_code(n, k, embed_dim=128, heads=8,
                                             encoders=10)
            formula = cfg.weights()
            enumerated = build_estimator(cfg, rng).num_params()
            margin = abs(formula - cfg.approx_weights()) / formula
            ok &= margin < 0.02
        ok &= formula == enumerated == want
        details.append(f"{arch}({n},{k})={formula}")
    report("1 parameter counts", ok, ", ".join(details))
    assert ok, details


# -------------------------------------------------------------------------
# 2. binary channel model statistical suite
# -------------------------------------------------------------------------

SYMMETRY_FRAMES = 15_625        # exactly 1e6 coded bits of the (64,32) code
CORR_FRAMES = 150_000           # 9.6e6 coded bits, sized for the 0.02 bound


def _channel_setup(kind, esn0_db):
    code = get_code("polar_64_32")
    const = build_constellation(kind)
    noise = NoiseConfig.from_esn0_db(esn0_db)
    return code, const, noise


@pytest.mark.parametrize("kind,esn0_db", [
    ("psk8", 3.0), ("psk8", 6.0), ("qam16", 6.0),
])
def test_criterion_2_symmetry(kind, esn0_db):
    code, const, noise = _channel_setup(kind, esn0_db)
    est = channel_statistics(code, const, noise, SYMMETRY_FRAMES,
                             _rng(2, int(esn0_db), const.m))
    z = bsc_symmetry_ztest(est).max_abs_z()
    ok = z <= 4.0
    report(f"2 symmetry {kind}@{esn0_db:g}dB", ok, f"max |z| = {z:.2f} <= 4")
    assert ok, z


def test_criterion_2_symmetry_qam16_at_0db():
    # Known red: the magnitude-bit asymmetry at Es/N0 = 0 dB is ~0.10, i.e.
    # dozens of sigma at 1e6 bits.  Asserted as specified, fails honestly.
    code, const, noise = _channel_setup("qam16", 0.0)
    est = channel_statistics(code, const, noise, SYMMETRY_FRAMES,
                             _rng(2, 0, const.m))
    z = bsc_symmetry_ztest(est).max_abs_z()
    ok = z <= 4.0
    report("2 symmetry qam16@0dB", ok, f"max |z| = {z:.2f} <= 4")
    assert ok, z


@pytest.mark.parametrize("kind,esn0_db", [
    ("psk8", 3.0), ("psk8", 6.0), ("qam16", 0.0), ("qam16", 6.0),
])
def test_criterion_2_memorylessness(kind, esn0_db):
    code, const, noise = _channel_setup(kind, esn0_db)
    res = channel_statistics(code, const, noise, CORR_FRAMES,
                             _rng(3, int(esn0_db), const.m))
    ok = res.max_abs_corr <= 0.02
    report(f"2 memorylessness {kind}@{esn0_db:g}dB", ok,
           f"max |corr| = {res.max_abs_corr:.4f} <= 0.02")
    assert ok, res.max_abs_corr


def test_criterion_2_crossover_oracles():
    code = get_code("polar_64_32")
    checks = []

    bpsk = build_constellation("bpsk")
    n0 = NoiseConfig.from_esn0_db(0.0)
    est = channel_statistics(code, bpsk, n0, SYMMETRY_FRAMES, _rng(4, 0))
    q_ref = 0.5 * math.erfc(1.0)  # Q(sqrt(2))
    dev = abs(est.pooled_q() - q_ref) / est.pooled_q_stderr()
    checks.append(("bpsk@0dB vs Q(sqrt2)", dev))

    psk8 = build_constellation("psk8")
    for esn0 in (3.0, 6.0):
        noise = NoiseConfig.from_esn0_db(esn0)
        _, q_ref = predicted_crossover(psk8, noise)
        est = channel_statistics(code, psk8, noise, SYMMETRY_FRAMES,
                                 _rng(4, int(esn0)))
        dev = abs(est.pooled_q() - q_ref) / est.pooled_q_stderr()
        checks.append((f"psk8@{esn0:g}dB vs closed form", dev))

    ok = all(dev <= 3.0 for _, dev in checks)
    report("2 crossover oracles", ok,
           ", ".join(f"{name} dev = {dev:.2f} sigma" for name, dev in checks))
    assert ok, checks


# -------------------------------------------------------------------------
# 3. message-side / noise-side MAP equivalence
# -------------------------------------------------------------------------

def test_criterion_3_map_equivalence_exhaustive():
    code = hamming_7_4()
    agree = all(
        np.array_equal(*map_noise_equivalence(code, 0.1, hard))
        for hard in all_messages(7)
    )
    report("3 MAP equivalence", agree,
           "message-MAP == pinv xor noise-MAP on all 128 inputs, BSC(0.1)")
    assert agree


# -------------------------------------------------------------------------
# 4. pseudo-inverse algebra on every code
# -------------------------------------------------------------------------

def test_criterion_4_code_algebra():
    from bicmlab.gf2code import gf2_matmul, gf2_rank

    rng = _rng(5)
    ok = True
    for name in builtin_code_names():
        code = get_code(name)
        n, k = code.n, code.k
        ok &= np.array_equal(gf2_matmul(code.a, code.g.T),
                             np.eye(k, dtype=np.uint8))
        ok &= gf2_rank(np.concatenate([code.h.T, code.a.T], axis=1)) == n
        if k <= 16:
            cws = code.encode(all_messages(k))
        else:
            cws = code.encode(
                rng.integers(0, 2, size=(5000, k)).astype(np.uint8))
        ok &= not np.any(code.syndrome(cws))
        u = rng.integers(0, 2, size=(10_000, k)).astype(np.uint8)
        w = rng.integers(0, 2, size=(10_000, n)).astype(np.uint8)
        got = code.p_inv_apply(code.encode(u) ^ w) ^ code.p_inv_apply(w)
        ok &= np.array_equal(got, u)
    report("4 code algebra", ok,
           f"A G^T = I, rank[H^T A^T] = n, zero syndromes, p_inv identity "
           f"on {len(builtin_code_names())} codes x 1e4 trials")
    assert ok


# -------------------------------------------------------------------------
# 5. gradient checks
# -------------------------------------------------------------------------

def test_criterion_5_gradient_checks():
    rng = _rng(6)
    x = rng.normal(size=(3, 10))
    t = (rng.random((3, 4)) < 0.3).astype(float)

    dense = build_estimator(
        RnnConfig(r=10, k=4, alpha=1, time_steps=1, depth=1), rng,
        dtype=np.float64)
    e_dense = gradient_check(dense, x, t, rng)

    gru = build_estimator(
        RnnConfig(r=10, k=4, alpha=1, time_steps=3, depth=2), rng,
        dtype=np.float64)
    e_gru = gradient_check(gru, x, t, rng)

    tf = build_estimator(
        TransformerConfig(r=10, k=4, embed_dim=8, heads=2, encoders=1), rng,
        dtype=np.float64)
    e_tf = gradient_check(tf, x, t, rng)

    ok = max(e_dense, e_gru, e_tf) < 1e-4
    report("5 gradient checks", ok,
           f"dense {e_dense:.2e}, gru(T=3,2 layers) {e_gru:.2e}, "
           f"transformer(1 encoder) {e_tf:.2e}, all < 1e-4")
    assert ok, (e_dense, e_gru, e_tf)


# -------------------------------------------------------------------------
# 6. reference-decoder soundness
# -------------------------------------------------------------------------

def test_criterion_6_reference_decoders():
    code = hamming_7_4()
    const = build_constellation("bpsk")
    noise = NoiseConfig.from_ebn0_db(1.0, code.rate, const.m)
    fb = transmit_batch(code, const, noise, _rng(7), 10_000)

    cw, metric = osd_decode(code, fb.llr, order=4)
    agree = np.array_equal(cw, map_decode(code, fb.llr)[0])
    metrics = [osd_decode(code, fb.llr[:200], order=w)[1]
               for w in range(0, 5)]
    monotone = all(np.all(hi >= lo - 1e-12)
                   for lo, hi in zip(metrics, metrics[1:]))
    # frame for frame: no frame OSD decodes right counts as an ML error
    ctr = ml_bound_update(code, fb.c, cw, metric, fb.llr)
    right = np.all(cw == fb.c, axis=1)
    on_right = ml_bound_update(code, fb.c[right], cw[right], metric[right],
                               fb.llr[right])
    ml_subset = (on_right.ml_frame_errors == 0
                 and ctr.ml_frame_errors <= ctr.frame_errors)
    ok = agree and monotone and ml_subset
    report("6 reference decoders", ok,
           f"OSD(4) == MAP on 1e4 frames: {agree}; metric monotone: "
           f"{monotone}; ML-bound subset frame-for-frame: {ml_subset}")
    assert ok


# -------------------------------------------------------------------------
# 7. desk-scale learning success
# -------------------------------------------------------------------------

def test_criterion_7_desk_scale_learning(tmp_path):
    ckpt = tmp_path / "desk_rnn.ckpt"
    t0 = time.time()
    train_estimator(TrainConfig(
        code="polar_16_8", constellation="qam16", arch="rnn",
        alpha=2, time_steps=3, depth=2, batch_size=512, steps=2000,
        train_ebn0_db=5.0, seed=MASTER_SEED, out=str(ckpt)))
    train_seconds = time.time() - t0
    assert train_seconds < 1800, "training exceeded the 30 minute budget"

    stop = StopRule(min_frame_errors=0, min_bit_errors=0, max_frames=100_000)
    base = ExperimentConfig(code="polar_16_8", constellation="qam16",
                            ebn0_db=(6.0,), stop=stop, seed=MASTER_SEED,
                            workers=4, decoder="hard-pinv")
    r_hard = run_point(base, 6.0)
    r_map = run_point(replace(base, decoder="map"), 6.0)
    r_sbnd = run_point(replace(base, decoder="sbnd", checkpoint=str(ckpt)),
                       6.0)
    ok = (r_sbnd.ber <= 0.5 * r_hard.ber) and (r_sbnd.ber >= r_map.ber)
    report("7 desk-scale learning", ok,
           f"trained {train_seconds:.0f}s; BER: sbnd {r_sbnd.ber:.4f} <= "
           f"0.5 x hard-pinv {r_hard.ber:.4f} and >= map {r_map.ber:.4f} "
           f"over {r_sbnd.frames} frames")
    assert ok, (r_sbnd.ber, r_hard.ber, r_map.ber)


# -------------------------------------------------------------------------
# 8. pipeline exactness and reproducibility
# -------------------------------------------------------------------------

def test_criterion_8_zero_noise_exactness():
    rng = _rng(8)
    tiny = NoiseConfig(1e-8)
    ok = True
    for name in builtin_code_names():
        code = get_code(name)
        for kind in ("bpsk", "qpsk", "psk8", "qam16"):
            const = build_constellation(kind)
            fb = transmit_batch(code, const, tiny, rng, 200)
            hard = hard_split(fb.llr)[0]
            ok &= not np.any(fb.c ^ hard)
            ok &= np.array_equal(code.p_inv_apply(hard), fb.u)
    report("8a zero-noise exactness", ok,
           f"exact recovery on {len(builtin_code_names())} codes x 4 "
           f"constellations x 200 frames")
    assert ok


def test_criterion_8_worker_reproducibility(cores):
    cores(8)
    cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                           decoder="hard-pinv", ebn0_db=(4.0,),
                           stop=StopRule(min_frame_errors=500,
                                         max_frames=200_000),
                           seed=MASTER_SEED)
    r1 = run_point(cfg, 4.0)
    r8 = run_point(replace(cfg, workers=8), 4.0)
    same = (r1.frames, r1.bit_errors, r1.frame_errors) == \
           (r8.frames, r8.bit_errors, r8.frame_errors)
    report("8b worker reproducibility", same,
           f"1 vs 8 workers: frames {r1.frames} == {r8.frames}, "
           f"bit errors {r1.bit_errors} == {r8.bit_errors}")
    assert same
