"""Interleaving, the end-to-end chain, and the binary channel model checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bicmlab.bicm import (
    ChannelStatistics,
    FrameBatch,
    channel_statistics,
    deinterleave,
    draw_interleaver,
    interleave,
    predicted_crossover,
    bsc_symmetry_ztest,
    transmit_batch,
)
from bicmlab import bicm, modem
from bicmlab.gf2code import get_code, hamming_7_4
from bicmlab.modem import (
    LLR_CLAMP,
    NoiseConfig,
    build_constellation,
    clamp_llrs,
    hard_split,
)
from oracles import channel_csv


def q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2))


def closed_form_crossover(kind: str, s1d: float) -> list[float]:
    """P(1|0) per bit position: half-plane tails for BPSK and QPSK, and for
    16-QAM the sign-bit tails and the magnitude-bit strip |y| < 2/sqrt(10)."""
    if kind == "bpsk":
        return [q_func(1.0 / s1d)]
    if kind == "qpsk":
        return [q_func(1.0 / math.sqrt(2.0) / s1d)] * 2
    a1, a3, b = 1 / math.sqrt(10), 3 / math.sqrt(10), 2 / math.sqrt(10)
    # sign bit, sent 0: transmitted level +a1 or +a3 equally often
    p_sign = 0.5 * (q_func(a1 / s1d) + q_func(a3 / s1d))
    # magnitude bit, sent 0 (outer): flip when |y| falls inside +-b
    p_mag = q_func((a3 - b) / s1d) - q_func((a3 + b) / s1d)
    return [p_sign, p_mag, p_sign, p_mag]


def sector_quadrature_crossover(const, sigma2: float) -> list[float]:
    """P(1|0) per Gray 8-PSK bit by 2-D quadrature, in polar coordinates, of
    CN(x, sigma2) over the angular sectors where the max-log rule flips the
    bit, averaged over the points x whose bit is 0."""
    from scipy.integrate import dblquad

    sectors = {
        1: [(-math.pi, 0.0)],
        2: [(math.pi / 2, math.pi), (-math.pi, -math.pi / 2)],
        3: [(math.pi / 4, 3 * math.pi / 4), (-3 * math.pi / 4, -math.pi / 4)],
    }
    per = []
    for s in (1, 2, 3):
        acc = 0.0
        pts = const.bit_subset(s, 0)
        for x in pts:
            a, phi = abs(x), math.atan2(x.imag, x.real)

            def pdf(r, theta):
                d2 = r * r - 2.0 * r * a * math.cos(theta - phi) + a * a
                return r / (math.pi * sigma2) * math.exp(-d2 / sigma2)

            for lo, hi in sectors[s]:
                acc += dblquad(pdf, lo, hi, 0.0, a + 10.0 * math.sqrt(sigma2),
                               epsabs=1e-11, epsrel=1e-11)[0]
        per.append(acc / pts.size)
    return per


def parent_transmit_batch(code, const, noise, rng, n_frames, *, demap_kind,
                          interleaver):
    """transmit_batch as the float64 GF(2) product, int64 label weights,
    take_along_axis interleaver and row-max demapper computed it before the
    chain was rewritten for speed; the reference for bit identity."""
    def matmul(a, b):
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return (prod.astype(np.int64) & 1).astype(np.uint8)

    n, m, s2 = code.n, const.m, noise.sigma2
    pad = n % m != 0
    u = rng.integers(0, 2, size=(n_frames, code.k), dtype=np.uint8)
    c = matmul(u, code.g)
    perms = (np.argsort(rng.random((n_frames, n)), axis=1)
             if interleaver is None
             else np.broadcast_to(interleaver, (n_frames, n)))
    c_tilde = np.take_along_axis(c, perms, axis=-1)
    tx = np.concatenate([c_tilde, np.zeros((n_frames, -n % m), np.uint8)],
                        axis=1) if pad else c_tilde
    groups = tx.reshape(n_frames, -1, m).astype(np.int64)
    inv = np.empty(const.M, dtype=np.int64)
    inv[const.label_ints()] = np.arange(const.M)
    x = const.points[inv[groups @ (1 << np.arange(m - 1, -1, -1))]]
    std = np.sqrt(s2 / 2.0)
    y = x + (rng.normal(0.0, std, x.shape) + 1j * rng.normal(0.0, std, x.shape))
    yr = y.view(np.float64).reshape(-1, 2)
    raw = np.empty((y.size, m))
    dim = bit = 0
    for coords, labels in const.factors:
        d = coords.shape[1]
        z = yr[:, dim:dim + d] @ (coords.T * (2.0 / s2))
        z -= np.sum(coords ** 2, axis=1) / s2
        for col in labels.T:
            reduced = []
            for subset in (np.flatnonzero(col == 0), np.flatnonzero(col)):
                zs = z[:, subset]
                r = zs.max(axis=1)
                if demap_kind == "exact":
                    zs -= r[:, None]
                    r += np.log(np.exp(zs, out=zs).sum(axis=1))
                reduced.append(r)
            raw[:, bit] = reduced[0] - reduced[1]
            bit += 1
        dim += d
    llr_tilde = clamp_llrs(raw.reshape(n_frames, -1))[:, :n]
    llr = np.empty_like(llr_tilde)
    np.put_along_axis(llr, perms, llr_tilde, axis=-1)
    return FrameBatch(u=u, c=c, perms=perms, llr=llr)


class TestInterleaver:
    def test_n1_identity(self):
        assert np.array_equal(draw_interleaver(1, np.random.default_rng(0)), [0])

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        perms = np.stack([draw_interleaver(64, rng) for _ in range(3)])
        v = rng.normal(size=(3, 64))
        w = interleave(v, perms)
        for i in range(3):
            assert np.array_equal(w[i], v[i, perms[i]])
        assert np.array_equal(deinterleave(w, perms), v)

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
        hard = hard_split(fb.llr)[0]
        assert np.array_equal(hard, fb.c)
        assert not np.any(fb.c ^ hard)
        assert np.array_equal(code.p_inv_apply(hard), fb.u)

    def test_record_self_consistency(self):
        rng = np.random.default_rng(4)
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(3.0, code.rate, const.m)
        for _ in range(20):
            fb = transmit_batch(code, const, nc, rng, 1)
            assert np.array_equal(fb.c, code.encode(fb.u))
            assert np.array_equal(
                fb.llr, deinterleave(interleave(fb.llr, fb.perms), fb.perms))
            hard = hard_split(fb.llr)[0]
            assert np.array_equal(
                code.p_inv_apply(fb.c ^ hard), code.p_inv_apply(hard) ^ fb.u)

    def test_syndrome_frame_invariant(self):
        # H l^b = H w^b because H c = 0
        rng = np.random.default_rng(5)
        code = get_code("polar_32_16")
        const = build_constellation("qpsk")
        nc = NoiseConfig.from_ebn0_db(2.0, code.rate, const.m)
        fb = transmit_batch(code, const, nc, rng, 200)
        hard = hard_split(fb.llr)[0]
        assert np.array_equal(code.syndrome(hard), code.syndrome(fb.c ^ hard))

    def test_high_snr_bpsk_hamming_no_flips(self):
        # Q-function oracle: expected per-bit flips are < 1e-6 at 20 dB
        code = hamming_7_4()
        nc = NoiseConfig.from_ebn0_db(20.0, code.rate, 1)
        assert q_func(math.sqrt(2.0 / nc.sigma2)) < 1e-6
        rng = np.random.default_rng(6)
        fb = transmit_batch(code, build_constellation("bpsk"), nc, rng, 1000)
        assert not np.any(fb.c ^ hard_split(fb.llr)[0])

    def test_padding_required_when_m_does_not_divide_n(self, monkeypatch):
        # 7 code bits fill two 16-QAM symbols: one zero pad bit is sent
        sent = []
        real = modem.modulate

        def recorded(const, bits):
            sent.append(bits)
            return real(const, bits)

        monkeypatch.setattr(bicm, "modulate", recorded)
        code = hamming_7_4()
        fb = transmit_batch(code, build_constellation("qam16"),
                            NoiseConfig.from_esn0_db(6.0),
                            np.random.default_rng(7), 4)
        assert fb.llr.shape == (4, 7)
        assert np.array_equal(sent[0], np.concatenate(
            [interleave(fb.c, fb.perms), np.zeros((4, 1), np.uint8)], axis=1))

    def test_padded_zero_noise_round_trip(self):
        rng = np.random.default_rng(8)
        code = hamming_7_4()
        for kind in ("psk8", "qam16"):
            fb = transmit_batch(code, build_constellation(kind),
                                NoiseConfig(1e-8), rng, 50)
            assert not np.any(fb.c ^ hard_split(fb.llr)[0])

    def test_no_hard_decisions(self, monkeypatch):
        # the chain ends at the LLRs; hard decisions are the consumer's
        def refuse(llr):
            raise AssertionError("transmit_batch formed hard decisions")

        monkeypatch.setattr(bicm, "hard_split", refuse)
        code = get_code("polar_16_8")
        fb = transmit_batch(code, build_constellation("qam16"),
                            NoiseConfig.from_esn0_db(5.0),
                            np.random.default_rng(10), 8)
        assert [f.name for f in dataclasses.fields(fb)] == [
            "u", "c", "perms", "llr"]

    def test_fixed_seed_reproducible(self):
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_esn0_db(5.0)
        a = transmit_batch(code, const, nc, np.random.default_rng(99), 32)
        b = transmit_batch(code, const, nc, np.random.default_rng(99), 32)
        assert np.array_equal(a.perms, b.perms)
        assert np.array_equal(a.llr, b.llr)


class TestBitIdentity:
    """The rewritten chain gives the bits the reference gives: every field,
    and the syndromes and pseudo-inverses of the hard decisions.  Enough
    frames of at least two symbols that every demap runs over more than
    one symbol slice."""

    FRAMES = modem._SLICE_SYMBOLS // 2 + 3

    @pytest.mark.parametrize("interleaver", ["fresh", "pinned"])
    @pytest.mark.parametrize("demap_kind", ["exact", "maxlog"])
    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "psk8", "qam16"])
    def test_chain_matches_reference(self, kind, demap_kind, interleaver):
        const = build_constellation(kind)
        for code in (hamming_7_4(), get_code("polar_16_8")):
            pinned = (draw_interleaver(code.n, np.random.default_rng(1))
                      if interleaver == "pinned" else None)
            for ebn0 in (0.0, 6.0):
                nc = NoiseConfig.from_ebn0_db(ebn0, code.rate, const.m)
                got, want = (
                    chain(code, const, nc, np.random.default_rng(21),
                          self.FRAMES, demap_kind=demap_kind,
                          interleaver=pinned)
                    for chain in (transmit_batch, parent_transmit_batch))
                for f in dataclasses.fields(FrameBatch):
                    assert np.array_equal(getattr(got, f.name),
                                          getattr(want, f.name)), f.name
                got_hard = hard_split(got.llr)[0]
                want_hard = hard_split(want.llr)[0]
                for bits, mat in ((code.syndrome(got_hard), code.h),
                                  (code.p_inv_apply(got_hard), code.a)):
                    want_bits = (want_hard.astype(np.int64) @ mat.T) & 1
                    assert np.array_equal(bits, want_bits)


class TestWorkingSet:
    """transmit_batch lets go of each stage's input once the stage has run."""

    def test_chunk_peak_is_the_batch_plus_one_llr_array(self):
        code = get_code("polar_128_64")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(4.0, code.rate, const.m)
        frames = 2048
        # a first call builds whatever the chain caches, outside the trace
        transmit_batch(code, const, nc, np.random.default_rng(1), frames)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            fb = transmit_batch(code, const, nc, rng, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = sum(getattr(fb, f.name).nbytes
                    for f in dataclasses.fields(FrameBatch))
        llr = frames * bicm._padded_length(code.n, const.m) * 8
        # 1 MiB for the demapper's per-slice scores and temporaries
        assert peak <= batch + llr + (1 << 20), (peak, batch)

    def test_clamp_is_in_place(self):
        l = np.array([-1e9, 1e9, 3.0])
        assert clamp_llrs(l) is l
        assert np.array_equal(l, [-LLR_CLAMP, LLR_CLAMP, 3.0])


def counts_only(flips, totals) -> ChannelStatistics:
    """ChannelStatistics with the given (m, 2) counts and no flip moments."""
    return ChannelStatistics(frames=0, flips=np.array(flips),
                             totals=np.array(totals), w_sum=np.zeros(0),
                             w_gram=np.zeros((0, 0)))


def reference_statistics(code, const, batches):
    """The counts, sum w and w^T w of channel_statistics, hand-rolled from
    FrameBatches: slot by slot in the interleaved domain over the pad-free
    symbols, and by integer products in the code domain."""
    m, n = const.m, code.n
    n_clean = (n // m) * m
    flips, totals = np.zeros((m, 2), int), np.zeros((m, 2), int)
    w_sum, w_gram = np.zeros(n, int), np.zeros((n, n), int)
    for fb in batches:
        w = (fb.c ^ hard_split(fb.llr)[0]).astype(int)
        sent, flipped = interleave(fb.c, fb.perms), interleave(w, fb.perms)
        for j in range(n_clean):
            for c in (0, 1):
                rows = sent[:, j] == c
                totals[j % m, c] += np.count_nonzero(rows)
                flips[j % m, c] += np.count_nonzero(flipped[rows, j])
        w_sum += w.sum(axis=0)
        w_gram += w.T @ w
    return flips, totals, w_sum, w_gram


class TestChannelStatistics:
    @pytest.mark.parametrize("kind,esn0,frames", [
        ("psk8", 3.0, 3_000),          # 64 = 21 * 3 + 1: symbol 21 padded
        ("qam16", 0.0, 3_000),
        ("psk8", 3.0, 8_192 + 100),    # two chunks
    ])
    def test_matches_reference(self, kind, esn0, frames):
        code = get_code("polar_64_32")
        const = build_constellation(kind)
        nc = NoiseConfig.from_esn0_db(esn0)
        got = channel_statistics(code, const, nc, frames,
                                 np.random.default_rng(22))
        rng = np.random.default_rng(22)
        chunks = [min(8_192, frames - i) for i in range(0, frames, 8_192)]
        batches = [transmit_batch(code, const, nc, rng, b, demap_kind="maxlog")
                   for b in chunks]
        flips, totals, w_sum, w_gram = reference_statistics(code, const,
                                                            batches)
        assert got.frames == frames
        assert np.array_equal(got.flips, flips)
        assert np.array_equal(got.totals, totals)
        assert np.array_equal(got.w_sum, w_sum)
        assert np.array_equal(got.w_gram, w_gram)
        assert got.totals.sum() == frames * (code.n // const.m) * const.m
        w = np.concatenate([fb.c ^ hard_split(fb.llr)[0] for fb in batches])
        want = np.corrcoef(w.T)
        np.fill_diagonal(want, 0.0)
        np.testing.assert_allclose(got.corr(), want, rtol=0, atol=1e-12)

    def test_zero_frames_refused(self):
        with pytest.raises(ValueError, match="frames must be >= 1"):
            channel_statistics(get_code("polar_64_32"),
                               build_constellation("qam16"),
                               NoiseConfig.from_esn0_db(6.0), 0,
                               np.random.default_rng(23))


class TestChannelEstimate:
    def test_zero_noise_zero_flip_rates(self):
        rng = np.random.default_rng(9)
        est = channel_statistics(get_code("polar_16_8"),
                                 build_constellation("qam16"),
                                 NoiseConfig(1e-8), 200, rng)
        assert est.pooled_q() == 0

    def test_bpsk_matches_q_of_sqrt2(self):
        rng = np.random.default_rng(10)
        code = get_code("polar_64_32")
        est = channel_statistics(code, build_constellation("bpsk"),
                                 NoiseConfig.from_esn0_db(0.0), 16_000, rng)
        q_hat, se = est.pooled_q(), est.pooled_q_stderr()
        assert abs(q_hat - q_func(math.sqrt(2))) <= 3 * se

    @pytest.mark.parametrize("kind", ["bpsk", "qpsk", "qam16"])
    @pytest.mark.parametrize("esn0", [-3.0, 0.0, 3.0, 6.0, 12.0])
    def test_axis_oracle_matches_closed_forms(self, kind, esn0):
        nc = NoiseConfig.from_esn0_db(esn0)
        per, q_ref = predicted_crossover(build_constellation(kind), nc)
        ref = closed_form_crossover(kind, math.sqrt(nc.sigma2 / 2.0))
        np.testing.assert_allclose(per, ref, rtol=1e-12, atol=0)
        assert q_ref == pytest.approx(np.mean(ref), rel=1e-12, abs=0)

    @pytest.mark.parametrize("esn0", [-3.0, 0.0, 3.0, 6.0, 12.0])
    def test_psk8_closed_form_matches_sector_quadrature(self, esn0):
        const = build_constellation("psk8")
        nc = NoiseConfig.from_esn0_db(esn0)
        per, q_ref = predicted_crossover(const, nc)
        ref = sector_quadrature_crossover(const, nc.sigma2)
        np.testing.assert_allclose(per, ref, rtol=1e-9, atol=0)
        assert q_ref == pytest.approx(np.mean(ref), rel=1e-9, abs=0)

    def test_psk8_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        code = get_code("polar_64_32")
        const = build_constellation("psk8")
        nc = NoiseConfig.from_esn0_db(6.0)
        per, q_ref = predicted_crossover(const, nc)
        est = channel_statistics(code, const, nc, 16_000, rng)
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
        est = channel_statistics(code, const, nc, 16_000, rng)
        assert abs(est.pooled_q() - q_ref) <= 3 * est.pooled_q_stderr()

    def test_pooled_equals_position_mean(self):
        rng = np.random.default_rng(13)
        est = channel_statistics(get_code("polar_64_32"),
                                 build_constellation("qam16"),
                                 NoiseConfig.from_esn0_db(3.0), 2_000, rng)
        per = [est.p_hat(s, 0) for s in (1, 2, 3, 4)]
        assert est.pooled_q() == pytest.approx(np.mean(per))

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(14)
        code = get_code("polar_64_32")
        for kind in ("bpsk", "qpsk", "psk8", "qam16"):
            const = build_constellation(kind)
            qs = []
            for esn0 in (0.0, 3.0, 6.0):
                est = channel_statistics(code, const,
                                         NoiseConfig.from_esn0_db(esn0),
                                         4_000, rng)
                qs.append(est.pooled_q())
            assert qs[0] > qs[1] > qs[2], kind

    def test_csv_export(self):
        rng = np.random.default_rng(16)
        est = channel_statistics(get_code("polar_16_8"),
                                 build_constellation("qam16"),
                                 NoiseConfig.from_esn0_db(3.0), 200, rng)
        lines = channel_csv(est).strip().splitlines()
        assert lines[0] == "s,c,flips,total,p_hat"
        assert len(lines) == 1 + 4 * 2


class TestSymmetry:
    def test_psk8_symmetric_at_both_snrs(self):
        rng = np.random.default_rng(17)
        code = get_code("polar_64_32")
        const = build_constellation("psk8")
        for esn0 in (3.0, 6.0):
            est = channel_statistics(code, const,
                                     NoiseConfig.from_esn0_db(esn0),
                                     16_000, rng)
            assert bsc_symmetry_ztest(est).max_abs_z() <= 4.0

    def test_qam16_symmetric_at_6db(self):
        # the magnitude bits carry a real residual asymmetry (~0.0037), worth
        # ~1.7 sigma at this sample size; the 4-sigma bound has solid margin
        rng = np.random.default_rng(18)
        est = channel_statistics(get_code("polar_64_32"),
                                 build_constellation("qam16"),
                                 NoiseConfig.from_esn0_db(6.0), 8_000, rng)
        assert bsc_symmetry_ztest(est).max_abs_z() <= 4.0

    def test_detects_synthetic_asymmetry(self):
        # p(1|0) = 0.2, p(0|1) = 0.1
        est = counts_only(flips=[[20_000, 10_000]],
                          totals=[[100_000, 100_000]])
        assert abs(bsc_symmetry_ztest(est).z_by_position[0]) > 4.0

    def test_insufficient_samples_rejected(self):
        est = counts_only(flips=[[10, 10]], totals=[[100, 100]])
        with pytest.raises(ValueError, match="insufficient"):
            bsc_symmetry_ztest(est)


class TestMemorylessness:
    def test_bpsk_flips_independent(self):
        rng = np.random.default_rng(19)
        res = channel_statistics(get_code("polar_64_32"),
                                 build_constellation("bpsk"),
                                 NoiseConfig.from_esn0_db(0.0),
                                 300_000, rng)
        assert res.max_abs_corr <= 0.01

    def test_qam16_fresh_interleaver_uncorrelated(self):
        rng = np.random.default_rng(20)
        res = channel_statistics(get_code("polar_64_32"),
                                 build_constellation("qam16"),
                                 NoiseConfig.from_esn0_db(6.0),
                                 100_000, rng)
        assert res.max_abs_corr <= 0.02

    def test_pinned_interleaver_exposes_same_symbol_coupling(self):
        rng = np.random.default_rng(21)
        code = get_code("polar_64_32")
        pin = draw_interleaver(code.n, rng)
        res = channel_statistics(code, build_constellation("qam16"),
                                 NoiseConfig.from_esn0_db(6.0),
                                 30_000, rng, interleaver=pin)
        assert res.max_abs_corr > 0.02
