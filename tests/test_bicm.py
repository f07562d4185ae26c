"""Interleaving, the end-to-end chain, and the binary channel model checks."""

import math

import numpy as np
import pytest

from bicmlab.bicm import (
    ChannelEstimate,
    deinterleave,
    draw_interleaver,
    estimate_channel,
    interleave,
    measure_flip_correlation,
    predicted_crossover,
    bsc_symmetry_ztest,
    transmit_batch,
)
from bicmlab.gf2code import get_code, hamming_7_4
from bicmlab.modem import NoiseConfig, build_constellation


def q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2))


class TestInterleaver:
    def test_n1_identity(self):
        assert np.array_equal(draw_interleaver(1, np.random.default_rng(0)), [0])

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        perm = draw_interleaver(64, rng)
        v = rng.normal(size=64)
        assert np.array_equal(deinterleave(interleave(v, perm), perm), v)

    def test_uniformity(self):
        rng = np.random.default_rng(2)
        n, draws = 8, 100_000
        counts = np.zeros((n, n))
        for _ in range(draws):
            perm = draw_interleaver(n, rng)
            counts[np.arange(n), perm] += 1
        p = 1 / n
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.max(np.abs(counts - draws * p)) <= 3 * sigma + 3 * math.sqrt(
            2 * math.log(n * n)) * sigma / 3  # max over 64 cells needs headroom
        # direct per-cell 4.5-sigma bound keeps false alarms ~1e-4 over 64 cells
        assert np.max(np.abs(counts - draws * p)) <= 4.5 * sigma


class TestTransmit:
    def test_zero_noise_recovers_message(self):
        rng = np.random.default_rng(3)
        code = hamming_7_4()
        fb = transmit_batch(code, build_constellation("bpsk"),
                            NoiseConfig(1e-8), rng, 1)
        assert np.array_equal(fb.hard, fb.c)
        assert not np.any(fb.flips)
        assert np.array_equal(code.p_inv_apply(fb.hard), fb.u)

    def test_record_self_consistency(self):
        rng = np.random.default_rng(4)
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(3.0, code.rate, const.m)
        for _ in range(20):
            fb = transmit_batch(code, const, nc, rng, 1)
            assert np.array_equal(fb.c, code.encode(fb.u))
            assert np.array_equal(fb.llr[0],
                                  deinterleave(fb.llr_tilde[0], fb.perms[0]))
            assert np.array_equal(
                code.p_inv_apply(fb.flips), code.p_inv_apply(fb.hard) ^ fb.u)

    def test_syndrome_frame_invariant(self):
        # H l^b = H w^b because H c = 0
        rng = np.random.default_rng(5)
        code = get_code("polar_32_16")
        const = build_constellation("qpsk")
        nc = NoiseConfig.from_ebn0_db(2.0, code.rate, const.m)
        fb = transmit_batch(code, const, nc, rng, 200)
        assert np.array_equal(code.syndrome(fb.hard), code.syndrome(fb.flips))

    def test_high_snr_bpsk_hamming_no_flips(self):
        # Q-function oracle: expected per-bit flips are < 1e-6 at 20 dB
        code = hamming_7_4()
        nc = NoiseConfig.from_ebn0_db(20.0, code.rate, 1)
        assert q_func(math.sqrt(2.0 / nc.sigma2)) < 1e-6
        rng = np.random.default_rng(6)
        fb = transmit_batch(code, build_constellation("bpsk"), nc, rng, 1000)
        assert not np.any(fb.flips)

    def test_padding_required_when_m_does_not_divide_n(self):
        code = hamming_7_4()
        const = build_constellation("qam16")
        nc = NoiseConfig.from_esn0_db(6.0)
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="padding"):
            transmit_batch(code, const, nc, rng, 4)
        fb = transmit_batch(code, const, nc, rng, 4, pad=True)
        assert fb.llr.shape == (4, 7)

    def test_padded_zero_noise_round_trip(self):
        rng = np.random.default_rng(8)
        code = hamming_7_4()
        for kind in ("psk8", "qam16"):
            fb = transmit_batch(code, build_constellation(kind),
                                NoiseConfig(1e-8), rng, 50, pad=True)
            assert not np.any(fb.flips)

    def test_fixed_seed_reproducible(self):
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_esn0_db(5.0)
        a = transmit_batch(code, const, nc, np.random.default_rng(99), 32)
        b = transmit_batch(code, const, nc, np.random.default_rng(99), 32)
        assert np.array_equal(a.perms, b.perms)
        assert np.array_equal(a.llr, b.llr)


class TestChannelEstimate:
    def test_zero_noise_zero_flip_rates(self):
        rng = np.random.default_rng(9)
        est = estimate_channel(get_code("polar_16_8"),
                               build_constellation("qam16"),
                               NoiseConfig(1e-8), 200, rng)
        assert est.pooled_q() == 0

    def test_bpsk_matches_q_of_sqrt2(self):
        rng = np.random.default_rng(10)
        code = get_code("polar_64_32")
        est = estimate_channel(code, build_constellation("bpsk"),
                               NoiseConfig.from_esn0_db(0.0), 16_000, rng)
        q_hat, se = est.pooled_q(), est.pooled_q_stderr()
        assert abs(q_hat - q_func(math.sqrt(2))) <= 3 * se

    def test_psk8_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        code = get_code("polar_64_32")
        const = build_constellation("psk8")
        nc = NoiseConfig.from_esn0_db(6.0)
        per, q_ref = predicted_crossover(const, nc)
        est = estimate_channel(code, const, nc, 16_000, rng, pad=True)
        assert abs(est.pooled_q() - q_ref) <= 3 * est.pooled_q_stderr()
        # per-position agreement too
        for s in range(3):
            p_hat = est.p_hat(s + 1, 0)
            n0 = est.totals[s, 0]
            se = math.sqrt(per[s] * (1 - per[s]) / n0)
            assert abs(p_hat - per[s]) <= 4 * se

    def test_qam16_matches_strip_oracle(self):
        rng = np.random.default_rng(12)
        code = get_code("polar_64_32")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_esn0_db(6.0)
        per, q_ref = predicted_crossover(const, nc)
        est = estimate_channel(code, const, nc, 16_000, rng)
        assert abs(est.pooled_q() - q_ref) <= 3 * est.pooled_q_stderr()

    def test_pooled_equals_position_mean(self):
        rng = np.random.default_rng(13)
        est = estimate_channel(get_code("polar_64_32"),
                               build_constellation("qam16"),
                               NoiseConfig.from_esn0_db(3.0), 2_000, rng)
        per = [est.p_hat(s, 0) for s in (1, 2, 3, 4)]
        assert est.pooled_q() == pytest.approx(np.mean(per))

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(14)
        code = get_code("polar_64_32")
        for kind in ("bpsk", "qpsk", "psk8", "qam16"):
            const = build_constellation(kind)
            pad = code.n % const.m != 0
            qs = []
            for esn0 in (0.0, 3.0, 6.0):
                est = estimate_channel(code, const,
                                       NoiseConfig.from_esn0_db(esn0),
                                       4_000, rng, pad=pad)
                qs.append(est.pooled_q())
            assert qs[0] > qs[1] > qs[2], kind

    def test_merge_adds_counts(self):
        rng = np.random.default_rng(15)
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_esn0_db(3.0)
        a = estimate_channel(code, const, nc, 500, rng)
        b = estimate_channel(code, const, nc, 500, rng)
        total_before = a.totals.sum() + b.totals.sum()
        a.merge(b)
        assert a.totals.sum() == total_before

    def test_csv_export(self):
        rng = np.random.default_rng(16)
        est = estimate_channel(get_code("polar_16_8"),
                               build_constellation("qam16"),
                               NoiseConfig.from_esn0_db(3.0), 200, rng)
        lines = est.to_csv().strip().splitlines()
        assert lines[0] == "s,c,flips,total,p_hat"
        assert len(lines) == 1 + 4 * 2


class TestSymmetry:
    def test_psk8_symmetric_at_both_snrs(self):
        rng = np.random.default_rng(17)
        code = get_code("polar_64_32")
        const = build_constellation("psk8")
        for esn0 in (3.0, 6.0):
            est = estimate_channel(code, const, NoiseConfig.from_esn0_db(esn0),
                                   16_000, rng, pad=True)
            assert bsc_symmetry_ztest(est).max_abs_z() <= 4.0

    def test_qam16_symmetric_at_6db(self):
        # the magnitude bits carry a real residual asymmetry (~0.0037), worth
        # ~1.7 sigma at this sample size; the 4-sigma bound has solid margin
        rng = np.random.default_rng(18)
        est = estimate_channel(get_code("polar_64_32"),
                               build_constellation("qam16"),
                               NoiseConfig.from_esn0_db(6.0), 8_000, rng)
        assert bsc_symmetry_ztest(est).max_abs_z() <= 4.0

    def test_detects_synthetic_asymmetry(self):
        est = ChannelEstimate(m=1)
        est.totals[0, 0] = est.totals[0, 1] = 100_000
        est.flips[0, 0] = 20_000   # p(1|0) = 0.2
        est.flips[0, 1] = 10_000   # p(0|1) = 0.1
        assert abs(bsc_symmetry_ztest(est).z_by_position[0]) > 4.0

    def test_insufficient_samples_rejected(self):
        est = ChannelEstimate(m=1)
        est.totals[:] = 100
        est.flips[:] = 10
        with pytest.raises(ValueError, match="insufficient"):
            bsc_symmetry_ztest(est)


class TestMemorylessness:
    def test_bpsk_flips_independent(self):
        rng = np.random.default_rng(19)
        res = measure_flip_correlation(get_code("polar_64_32"),
                                       build_constellation("bpsk"),
                                       NoiseConfig.from_esn0_db(0.0),
                                       300_000, rng)
        assert res.max_abs_corr <= 0.01

    def test_qam16_fresh_interleaver_uncorrelated(self):
        rng = np.random.default_rng(20)
        res = measure_flip_correlation(get_code("polar_64_32"),
                                       build_constellation("qam16"),
                                       NoiseConfig.from_esn0_db(6.0),
                                       100_000, rng)
        assert res.max_abs_corr <= 0.02

    def test_pinned_interleaver_exposes_same_symbol_coupling(self):
        rng = np.random.default_rng(21)
        code = get_code("polar_64_32")
        pin = draw_interleaver(code.n, rng)
        res = measure_flip_correlation(code, build_constellation("qam16"),
                                       NoiseConfig.from_esn0_db(6.0),
                                       30_000, rng, interleaver=pin)
        assert res.max_abs_corr > 0.02
