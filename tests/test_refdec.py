"""Exhaustive MAP, ordered statistics decoding, and ML-bound bookkeeping."""

import functools
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from bicmlab import refdec
from bicmlab.bicm import transmit_batch
from bicmlab.gf2code import (
    LinearCode,
    get_code,
    gf2_matmul,
    gf2_rank,
    gf2_rref,
    hamming_7_4,
)
from bicmlab.modem import LLR_CLAMP, NoiseConfig, build_constellation
from bicmlab.refdec import (
    ErrorCounter,
    _effective_orders,
    _encode,
    _osd_scores,
    _pack,
    _ranking,
    _reduce_on_ranking,
    _score_tolerance,
    _test_patterns,
    _unpack,
    correlation_metric,
    map_decode,
    ml_bound_update,
    osd_decode,
)


@functools.cache
def random_84_72():
    """A seeded random (84, 72) code: k > 64 needs two 64-bit words per
    column of the generator in the OSD."""
    h = np.random.default_rng(84).integers(0, 2, size=(12, 84), dtype=np.uint8)
    return LinearCode.from_parity_check(h, name="random_84_72")


def code_named(name):
    return random_84_72() if name == "random_84_72" else get_code(name)


def noisy_frames(code, n_frames, ebn0_db=1.0, seed=0, kind="bpsk"):
    const = build_constellation(kind)
    nc = NoiseConfig.from_ebn0_db(ebn0_db, code.rate, const.m)
    rng = np.random.default_rng(seed)
    return transmit_batch(code, const, nc, rng, n_frames)


class TestMapBruteforce:
    def test_noiseless_returns_transmitted(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 20, ebn0_db=25.0, seed=1)
        cw, _ = map_decode(code, fb.llr)
        assert np.array_equal(cw, fb.c)

    def test_hard_input_minimizes_hamming_distance(self):
        code = hamming_7_4()
        rng = np.random.default_rng(2)
        hard = rng.integers(0, 2, size=(50, 7)).astype(np.uint8)
        cw, _ = map_decode(code, 1.0 - 2.0 * hard.astype(np.float64))
        dists = np.count_nonzero(code.codebook() ^ hard[:, None], axis=2)
        assert np.array_equal(np.count_nonzero(cw ^ hard, axis=1),
                              dists.min(axis=1))

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            map_decode(get_code("polar_64_32"), np.zeros((1, 64)))

    def test_metric_invariant_to_positive_scaling(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 100, seed=3)
        a, _ = map_decode(code, fb.llr)
        b, _ = map_decode(code, 7.3 * fb.llr)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name, width", [
        ("polar_16_8", 5), ("polar_16_8", 64), ("polar_32_16", 1000),
        ("polar_32_16", refdec._MAP_SLICE)])
    @pytest.mark.parametrize("integer", [False, True],
                             ids=["float", "integer"])
    def test_slices_decode_as_one_slice(self, monkeypatch, name, width,
                                        integer):
        # integer LLRs tie, within a slice and across slices
        code = get_code(name)
        if integer:
            llr = np.random.default_rng(4).integers(
                -3, 4, size=(64, code.n)).astype(np.float64)
        else:
            llr = noisy_frames(code, 64, ebn0_db=0.0, seed=4).llr
        monkeypatch.setattr(refdec, "_MAP_SLICE", 1 << code.k)
        cw, metric = map_decode(code, llr)
        monkeypatch.setattr(refdec, "_MAP_SLICE", width)
        sliced_cw, sliced_metric = map_decode(code, llr)
        assert np.array_equal(sliced_cw, cw)
        assert np.array_equal(sliced_metric, metric)

    def test_scores_take_one_slice_at_a_time(self):
        # all (256, 2^16) float64 scores at once would take 128 MiB
        code = get_code("polar_32_16")
        llr = noisy_frames(code, 256, ebn0_db=0.0, seed=5).llr
        code.codebook()                     # cached, outside the trace
        tracemalloc.start()
        try:
            map_decode(code, llr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak


def osd_reference(code, llr, order):
    """OSD spelled out for one frame: the most reliable basis by a rank test
    per position, the generator inverted on it by gf2_rref, and every
    pattern of weight <= order enumerated and re-encoded.  Best metric;
    exact ties to the lexicographically smallest codeword."""
    ranking = np.argsort(-np.abs(llr), kind="stable")
    basis = []
    for pos in ranking:
        if gf2_rank(code.g[:, basis + [pos]]) > len(basis):
            basis.append(pos)
        if len(basis) == code.k:
            break
    rref, _ = gf2_rref(np.concatenate([code.g[:, basis], code.g], axis=1))
    r = rref[:, code.k:]                       # r[:, basis] = I
    flips = [np.zeros((1, code.k), dtype=np.uint8)]
    for w in range(1, order + 1):
        where = np.array(list(combinations(range(code.k), w)))
        pats = np.zeros((len(where), code.k), dtype=np.uint8)
        pats[np.arange(len(where))[:, None], where] = 1
        flips.append(pats)
    info = (llr[basis] < 0).astype(np.uint8) ^ np.concatenate(flips)
    cws = gf2_matmul(info, r)
    metrics = (1.0 - 2.0 * cws) @ llr
    top = cws[metrics == metrics.max()]
    return np.array(min(map(tuple, top)), dtype=np.uint8), metrics.max()


class TestOsd:
    def test_order_zero_noiseless(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 20, ebn0_db=25.0, seed=4)
        cw, _ = osd_decode(code, fb.llr, order=0)
        assert np.array_equal(cw, fb.c)

    def test_metric_monotone_in_order(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 200, seed=5)
        metrics = [osd_decode(code, fb.llr, order=w)[1] for w in range(5)]
        for lower, higher in zip(metrics, metrics[1:]):
            assert np.all(higher >= lower - 1e-12)

    def test_full_order_equals_bruteforce_hamming(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 10_000, seed=6)
        cw, _ = osd_decode(code, fb.llr, order=4)
        assert np.array_equal(cw, map_decode(code, fb.llr)[0])

    def test_full_order_equals_bruteforce_polar_16_8(self):
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(3.0, code.rate, const.m)
        fb = transmit_batch(code, const, nc, np.random.default_rng(7), 2_000)
        cw, _ = osd_decode(code, fb.llr, order=8)
        assert np.array_equal(cw, map_decode(code, fb.llr)[0])

    def test_scaling_invariance(self):
        code = get_code("polar_16_8")
        fb = noisy_frames(code, 50, seed=8, kind="qpsk")
        a, _ = osd_decode(code, fb.llr, order=2)
        b, _ = osd_decode(code, 0.01 * fb.llr, order=2)
        assert np.array_equal(a, b)

    def test_candidates_are_codewords(self):
        code = get_code("polar_32_16")
        fb = noisy_frames(code, 50, seed=9, kind="qpsk")
        cw, _ = osd_decode(code, fb.llr, order=1)
        assert not np.any(code.syndrome(cw))

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            osd_decode(hamming_7_4(), np.zeros((1, 7)), order=5)

    @pytest.mark.parametrize("shape", [(2, 8), (7,)], ids=["n", "frame"])
    @pytest.mark.parametrize("decode", [
        lambda code, llr: map_decode(code, llr),
        lambda code, llr: osd_decode(code, llr, order=1),
        lambda code, llr: ml_bound_update(
            code, np.zeros((1, 7), dtype=np.uint8),
            np.zeros((1, 7), dtype=np.uint8), np.zeros(1), llr),
    ], ids=["map_decode", "osd_decode", "ml_bound_update"])
    def test_llr_shape_checked(self, decode, shape):
        with pytest.raises(ValueError, match=r"llr shape .* is not \(B, n\)"):
            decode(hamming_7_4(), np.zeros(shape))


def osd_llrs(code, frames, kind):
    """(frames, n) LLRs: continuous QPSK ones at 1 dB, or at 5 dB
    ("high-snr"), where most frames stop below order 2 (_effective_orders);
    integers in -2..2, which force exact ties between candidates; or the
    1 dB ones scaled by 40 and clamped, most of them to +-LLR_CLAMP."""
    ebn0_db = 5.0 if kind == "high-snr" else 1.0
    llr = noisy_frames(code, frames, ebn0_db=ebn0_db, seed=20,
                       kind="qpsk").llr
    if kind == "integer":
        rng = np.random.default_rng(21)
        llr = rng.integers(-2, 3, size=llr.shape).astype(np.float64)
    elif kind == "clamped":
        llr = np.clip(40.0 * llr, -LLR_CLAMP, LLR_CLAMP)
        assert np.mean(np.abs(llr) == LLR_CLAMP) > 0.5
    return llr


class TestOsdBatch:
    @pytest.mark.parametrize("kind", ["continuous", "high-snr", "integer",
                                      "clamped"])
    @pytest.mark.parametrize("name,frames,order", [
        (name, frames, order)
        for name, frames, orders in [("polar_32_16", 40, range(4)),
                                     ("polar_64_32", 12, range(4)),
                                     ("polar_128_64", 6, range(4)),
                                     ("random_84_72", 4, range(3))]
        for order in orders])
    def test_matches_enumerating_reference(self, name, frames, order, kind):
        # a generator column is one 16-, 32- or 64-bit word, and two 64-bit
        # words for random_84_72
        code = code_named(name)
        llr = osd_llrs(code, frames, kind)
        cw, metric = osd_decode(code, llr, order)
        for i in range(frames):
            ref_cw, ref_metric = osd_reference(code, llr[i], order)
            assert np.array_equal(cw[i], ref_cw)
            assert metric[i] == pytest.approx(ref_metric, abs=1e-9)

    def test_batch_equals_single_rows(self):
        # 300 frames span several decoding slices
        code = get_code("polar_64_32")
        llr = noisy_frames(code, 300, ebn0_db=2.0, seed=22, kind="qpsk").llr
        llr[:100] = np.round(llr[:100] / 4.0)   # frames with exact ties
        cw, metric = osd_decode(code, llr, order=2)
        assert cw.shape == (300, 64) and metric.shape == (300,)
        for i in range(300):
            one_cw, one_metric = osd_decode(code, llr[i:i + 1], order=2)
            assert np.array_equal(one_cw[0], cw[i])
            assert one_metric[0] == metric[i]

    @pytest.mark.parametrize("kind", ["continuous", "integer", "clamped"])
    @pytest.mark.parametrize("name,order,pieces", [
        pytest.param(name, order, pieces, id=f"{name}-{order}")
        for name, order, pieces in [
            ("polar_64_32", 1, (1, 299, 724)),
            ("polar_64_32", 2, (1, 299, 724)),
            # order 3 costs about 3 ms a frame on polar_64_32 and 60 ms on
            # polar_128_64; its groups hold 47 and 5 frames
            ("polar_64_32", 3, (1, 37, 90)),
            ("polar_128_64", 1, (1, 299, 724)),
            ("polar_128_64", 2, (1, 299, 724)),
            ("polar_128_64", 3, (1, 3, 4))]])
    def test_pieces_decode_as_one_block(self, name, order, pieces, kind):
        # a frame's codeword and metric do not depend on the frames decoded
        # beside it, nor on where its group and sub-slice boundaries fall
        code = get_code(name)
        llr = osd_llrs(code, sum(pieces), kind)
        cw, metric = osd_decode(code, llr, order)
        ends = np.cumsum(pieces)
        parts = [osd_decode(code, llr[end - size:end], order)
                 for size, end in zip(pieces, ends)]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), cw)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), metric)

    @pytest.mark.parametrize("ebn0_db", [1.0, 3.0])
    def test_working_set(self, ebn0_db):
        # a 1024-frame block of the osd2-qpsk chain; at 1 dB most frames
        # score order 2, so the cap on a group's scores bounds the peak
        code = get_code("polar_64_32")
        const = build_constellation("qpsk")
        nc = NoiseConfig.from_ebn0_db(ebn0_db, code.rate, const.m)
        llr = transmit_batch(code, const, nc, np.random.default_rng(0),
                             1024, demap_kind="maxlog").llr
        osd_decode(code, llr, 2)            # pattern tables built once
        tracemalloc.start()
        try:
            osd_decode(code, llr, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestPruning:
    """The tie-checked ranking and the per-frame effective order."""

    @pytest.mark.parametrize("kind", ["continuous", "integer", "clamped"])
    def test_ranking_equals_stable_argsort(self, kind):
        code = get_code("polar_64_32")
        llr = osd_llrs(code, 200, kind)
        if kind == "continuous":
            llr[::9, :4] = [0.0, -0.0, 0.0, -0.0]   # ties between +-0
        mag = np.abs(llr)
        ranked = np.sort(-mag, axis=1)
        tied = np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)
        # both the fast path and the stable re-sort are taken
        assert tied.any() and (kind != "continuous" or not tied.all())
        assert np.array_equal(_ranking(mag),
                              np.argsort(-mag, axis=1, kind="stable"))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name", ["hamming_7_4", "polar_16_8"])
    def test_keeps_flips_that_tie_c0(self, name, order):
        # integer LLRs in -3..3 put many frames exactly on the bound
        # D = a(1) + ... + a(w), where a weight-w flip may tie c0 and win
        # the tie-break; a strict test there changes hundreds of frames
        code = get_code(name)
        rng = np.random.default_rng(41)
        llr = rng.integers(-3, 4, size=(300, code.n)).astype(np.float64)
        cw, metric = osd_decode(code, llr, order)
        for i in range(len(llr)):
            ref_cw, ref_metric = osd_reference(code, llr[i], order)
            assert np.array_equal(cw[i], ref_cw)
            assert metric[i] == ref_metric

    def test_effective_orders_at_benchmark_point(self):
        # the osd2-qpsk point: polar_64_32, QPSK max-log, Eb/N0 3 dB
        code = get_code("polar_64_32")
        const = build_constellation("qpsk")
        nc = NoiseConfig.from_ebn0_db(3.0, code.rate, const.m)
        llr = transmit_batch(code, const, nc, np.random.default_rng(40),
                             1024, demap_kind="maxlog").llr
        mag = np.abs(llr)
        cols, info, basis = _reduce_on_ranking(code.g, _ranking(mag),
                                               llr < 0)
        metric0 = correlation_metric(_encode(cols, info), llr)
        weights = _effective_orders(mag, _score_tolerance(llr), metric0,
                                    basis, 2)
        assert set(np.unique(weights)) == {0, 1, 2}
        # every flip heavier than a frame's effective order scores below c0
        pats = _test_patterns(code.k, 2)
        pattern_weight = np.bitwise_count(pats).sum(axis=1)
        for i in range(0, len(llr), 8):
            scores = float64_scores(cols[i], info[i], pats, llr[i])
            assert np.all(scores[pattern_weight > weights[i]] < metric0[i])


def float64_scores(cols, info, pats, llr):
    """Every flip pattern's correlation metric in float64, for one frame:
    the info word ^ pattern words re-encoded on its reduced columns, 4096
    patterns at a time."""
    return np.concatenate([
        (1.0 - 2.0 * _encode(cols, info ^ pats[p:p + 4096])) @ llr
        for p in range(0, len(pats), 4096)])


class TestFloat32Scores:
    @pytest.mark.parametrize("kind", ["continuous", "integer", "clamped"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("name,frames",
                             [("polar_64_32", 12), ("polar_128_64", 3)])
    def test_within_half_tolerance(self, name, frames, order, kind):
        # then no pattern that exactly ties or beats the rest can fall out
        # of the shortlist; TestOsdBatch checks the winners themselves
        code = get_code(name)
        llr = osd_llrs(code, frames, kind)
        ranking = np.argsort(-np.abs(llr), axis=1, kind="stable")
        cols, info, _ = _reduce_on_ranking(code.g, ranking, llr < 0)
        scores = _osd_scores(code, llr, cols, _encode(cols, info), order)
        assert scores.dtype == np.float32
        pats = _test_patterns(code.k, order)
        half_tol = _score_tolerance(llr)[:, 0] / 2.0
        for i in range(frames):
            want = float64_scores(cols[i], info[i], pats, llr[i])
            assert np.max(np.abs(scores[i] - want)) <= half_tol[i]


class TestPackedRows:
    """The generator's rows packed as bits of column words."""

    @pytest.mark.parametrize("kind", ["continuous", "integer",
                                      "dependent-lead"])
    @pytest.mark.parametrize("name", ["polar_16_8", "polar_64_32",
                                      "polar_128_64", "random_84_72"])
    def test_elimination_matches_per_frame_rref(self, name, kind):
        # a column is one 8-, 32- or 64-bit word, or two 64-bit words
        code = code_named(name)
        rng = np.random.default_rng(30)
        llr = noisy_frames(code, 40, ebn0_db=1.0, seed=31, kind="qpsk").llr
        if kind == "integer":
            # ties, ranked by the same stable sort as osd_decode
            llr = rng.integers(-2, 3, size=llr.shape).astype(np.float64)
        ranking = np.argsort(-np.abs(llr), axis=1, kind="stable")
        if kind == "dependent-lead":
            # every other frame leads with the support of a lightest parity
            # check, whose last column is the sum of the others, so frames
            # skip a column at different steps of the lock-step scan
            lead = np.flatnonzero(code.h[np.argmin(code.h.sum(axis=1))])
            rest = np.setdiff1d(np.arange(code.n), lead)
            for b in range(0, len(llr), 2):
                ranking[b] = np.concatenate([lead, rng.permutation(rest)])
        hard = rng.integers(0, 2, size=llr.shape).astype(bool)
        cols, info, basis = _reduce_on_ranking(code.g, ranking, hard)
        table = _pack(code.g.T)
        assert table.shape[1] == -(-code.k // 64) and table.dtype.kind == "u"
        assert cols.shape == (len(llr),) + table.shape
        assert cols.dtype == info.dtype == table.dtype
        # (B, k, n) bits in reliability order
        bits = np.take_along_axis(_unpack(cols, code.k).transpose(0, 2, 1),
                                  ranking[:, None, :], axis=2)
        info = _unpack(info, code.k)
        # rows are never swapped: a row pivots at its leading 1
        pivot = np.argmax(bits, axis=2)
        for b in range(len(llr)):
            rref, pivots = gf2_rref(code.g[:, ranking[b]])
            assert sorted(pivot[b]) == pivots
            assert np.array_equal(basis[b], ranking[b, pivots])
            assert np.array_equal(bits[b][np.argsort(pivot[b])], rref)
            assert np.array_equal(info[b], hard[b, ranking[b, pivot[b]]])
        if kind == "dependent-lead":
            assert not np.any(pivot[::2] == len(lead) - 1)
            assert np.all(np.sort(pivot[::2], axis=1)[:, :len(lead) - 1]
                          == np.arange(len(lead) - 1))

    @pytest.mark.parametrize("n,k,size", [(7, 4, 1), (16, 9, 2), (64, 64, 8),
                                          (128, 72, 8)],
                             ids=["7", "16", "64", "128"])
    def test_xor_encode_matches_gf2_matmul(self, n, k, size):
        # one 8-, 16- or 64-bit word per column, and two 64-bit words
        rng = np.random.default_rng(n)
        frames = 30
        r = rng.integers(0, 2, size=(frames, k, n), dtype=np.uint8)
        info = rng.integers(0, 2, size=(frames, k), dtype=np.uint8)
        cols = _pack(r.transpose(0, 2, 1))
        words = _pack(info)
        assert cols.dtype.itemsize == words.dtype.itemsize == size
        assert np.array_equal(_unpack(cols, k).transpose(0, 2, 1), r)
        # one info word per frame, each with its own columns
        got = _encode(cols, words)
        assert np.array_equal(got, np.array([gf2_matmul(info[b], r[b])
                                             for b in range(frames)]))
        # many info words against one frame's columns
        assert np.array_equal(_encode(cols[0], words), gf2_matmul(info, r[0]))


def _ml_cases(code):
    """(transmitted, decoded, metric, LLR) one-row batches: right, wrong but
    no ML error, ML error, and a tie."""
    c = code.encode(np.array([1, 0, 0, 1], dtype=np.uint8))
    other = code.encode(np.array([0, 1, 1, 0], dtype=np.uint8))
    favors_c = (1.0 - 2.0 * c.astype(np.float64)) * 3.0
    favors_other = (1.0 - 2.0 * other.astype(np.float64)) * 3.0
    rows = [(c, c, favors_c), (c, other, favors_c),
            (c, other, favors_other), (c, other, np.zeros(7))]
    return [(t[None], o[None], correlation_metric(o, l)[None], l[None])
            for t, o, l in rows]


class TestMlBound:
    def test_correct_frame_counts_nothing(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 1, ebn0_db=25.0, seed=10)
        cw, metric = osd_decode(code, fb.llr, order=4)
        ctr = ml_bound_update(code, fb.c, cw, metric, fb.llr)
        assert ctr.frames == 1
        assert ctr.frame_errors == 0 and ctr.ml_frame_errors == 0

    def test_osd_error_without_ml_error(self):
        # an OSD output worse than the transmitted codeword
        code = hamming_7_4()
        ctr = ml_bound_update(code, *_ml_cases(code)[1])
        assert ctr.frame_errors == 1 and ctr.ml_frame_errors == 0

    def test_ml_error_when_impostor_outscores(self):
        code = hamming_7_4()
        ctr = ml_bound_update(code, *_ml_cases(code)[2])
        assert ctr.frame_errors == 1 and ctr.ml_frame_errors == 1
        assert ctr.ml_bit_errors == ctr.bit_errors > 0

    def test_tie_is_not_an_ml_error(self):
        code = hamming_7_4()
        # every metric ties at zero
        ctr = ml_bound_update(code, *_ml_cases(code)[3])
        assert ctr.frame_errors == 1 and ctr.ml_frame_errors == 0

    def test_batch_equals_row_tallies(self):
        code = hamming_7_4()
        cases = _ml_cases(code)
        fb = noisy_frames(code, 500, ebn0_db=0.0, seed=12)
        cw, metric = osd_decode(code, fb.llr, order=1)
        cases += [(fb.c[i:i + 1], cw[i:i + 1], metric[i:i + 1],
                   fb.llr[i:i + 1]) for i in range(500)]
        rows = ErrorCounter()
        for case in cases:
            rows.merge(ml_bound_update(code, *case))
        batch = ml_bound_update(code, *(np.concatenate(col)
                                        for col in zip(*cases)))
        assert batch == rows
        assert rows.frames == 504 and 0 < rows.ml_frame_errors

    def test_ml_bound_below_osd_over_stream(self):
        code = hamming_7_4()
        fb = noisy_frames(code, 2_000, ebn0_db=0.0, seed=11)
        cw, metric = osd_decode(code, fb.llr, order=1)
        ctr = ml_bound_update(code, fb.c, cw, metric, fb.llr)
        assert ctr.frames == 2_000
        assert 0 < ctr.ml_frame_errors <= ctr.frame_errors
        assert ctr.ml_bit_errors <= ctr.bit_errors

    def test_tally(self):
        u = np.zeros((4, 3), dtype=np.uint8)
        u_hat = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
                         dtype=np.uint8)
        assert ErrorCounter.tally(u_hat, u) == ErrorCounter(
            frames=4, bit_errors=6, frame_errors=3)
        ml = np.array([True, False, True, False])
        assert ErrorCounter.tally(u_hat, u, ml) == ErrorCounter(
            frames=4, bit_errors=6, frame_errors=3, ml_bit_errors=2,
            ml_frame_errors=1)
        assert ErrorCounter.tally(u_hat ^ 1, 1 - u, ml) == ErrorCounter(
            frames=4, bit_errors=6, frame_errors=3, ml_bit_errors=2,
            ml_frame_errors=1)

    def test_merge(self):
        a = ErrorCounter(frames=10, bit_errors=3, frame_errors=2,
                         ml_bit_errors=1, ml_frame_errors=1)
        b = ErrorCounter(frames=5, bit_errors=1, frame_errors=1)
        a.merge(b)
        assert (a.frames, a.bit_errors, a.frame_errors) == (15, 4, 3)
