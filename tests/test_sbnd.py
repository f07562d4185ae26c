"""Sufficient statistics, decoder composition, training pairs, and the
message-side / noise-side MAP equivalence."""

import numpy as np
import pytest

from bicmlab.bicm import transmit_batch
from bicmlab.gf2code import all_messages, get_code, hamming_7_4, repetition_2_1
from bicmlab.modem import NoiseConfig, build_constellation, hard_split
from bicmlab.sbnd import (
    decode_batch,
    hard_messages,
    make_training_batch,
    statistic_batch,
)
from oracles import map_noise_equivalence


class ZeroEstimator:
    """Always predicts 'no flips'; decoding degrades to the hard pseudo-inverse."""

    def __init__(self, k: int):
        self.k = k

    def predict(self, stats: np.ndarray) -> np.ndarray:
        return np.zeros((stats.shape[0], self.k))


class OracleEstimator:
    """Replays known true flip patterns as +-1 logits."""

    def __init__(self, flips: np.ndarray):
        self.logits = 2.0 * np.atleast_2d(flips).astype(np.float64) - 1.0
        self._row = 0

    def predict(self, stats: np.ndarray) -> np.ndarray:
        out = self.logits[self._row:self._row + stats.shape[0]]
        self._row += stats.shape[0]
        return out


class TestExtractStatistic:
    def test_length_is_2n_minus_k(self):
        code = hamming_7_4()
        llr = np.linspace(-1, 1, 7)[None, :]
        hard, stat = statistic_batch(code, llr)
        assert np.array_equal(hard, hard_split(llr)[0])
        assert stat.shape == (1, 10)

    def test_noiseless_codeword_zero_syndrome(self):
        code = get_code("polar_16_8")
        rng = np.random.default_rng(0)
        fb = transmit_batch(code, build_constellation("qam16"),
                            NoiseConfig(1e-8), rng, 1)
        stat = statistic_batch(code, fb.llr)[1]
        assert np.all(stat[:, 16:] == 1.0)

    def test_coset_sign_flips_preserve_statistic(self):
        # flipping the signs of l on a codeword support changes l^b by that
        # codeword, so the syndrome (and of course |l|) cannot move
        code = get_code("polar_16_8")
        rng = np.random.default_rng(1)
        llr = rng.normal(size=16) * 3
        cw = code.encode(rng.integers(0, 2, size=8).astype(np.uint8))
        llr_flipped = llr * (1 - 2 * cw.astype(float))
        a = statistic_batch(code, llr[None, :])[1]
        b = statistic_batch(code, llr_flipped[None, :])[1]
        assert np.allclose(a[:, :16], b[:, :16])
        assert np.array_equal(a[:, 16:], b[:, 16:])

    def test_syndrome_encoding_is_plus_minus_one(self):
        code = hamming_7_4()
        llr = np.array([[-1.0, 1, 1, 1, 1, 1, 1]])
        vec = statistic_batch(code, llr)[1][0]
        assert set(np.sign(vec[7:]).tolist()) <= {-1.0, 1.0}
        # syndrome bit 1 -> -1, syndrome bit 0 -> +1
        syndrome = code.syndrome((llr[0] < 0).astype(np.uint8))
        assert np.array_equal(vec[7:], 1.0 - 2.0 * syndrome.astype(float))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            statistic_batch(hamming_7_4(), np.zeros((1, 6)))


class TestDecode:
    def test_zero_estimator_is_hard_pinv(self):
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(4.0, code.rate, const.m)
        rng = np.random.default_rng(3)
        fb = transmit_batch(code, const, nc, rng, 100)
        got = decode_batch(code, fb.llr, ZeroEstimator(code.k))
        assert np.array_equal(got, code.p_inv_apply(hard_split(fb.llr)[0]))

    def test_hard_messages_keep_the_tie_rule(self):
        # exact zeros, of either sign, decide 0 as in hard_split
        code = get_code("polar_16_8")
        llr = np.random.default_rng(5).normal(size=(64, 16)).round()
        llr[:, ::3] = 0.0
        llr[1::2, ::6] = -0.0
        assert np.count_nonzero(llr == 0) > 64 * 5
        assert np.array_equal(hard_messages(code, llr),
                              code.p_inv_apply(hard_split(llr)[0]))

    def test_oracle_estimator_recovers_exactly(self):
        code = get_code("polar_32_16")
        const = build_constellation("psk8")
        nc = NoiseConfig.from_ebn0_db(0.0, code.rate, const.m)
        rng = np.random.default_rng(4)
        fb = transmit_batch(code, const, nc, rng, 300)
        flips = code.p_inv_apply(fb.c ^ hard_split(fb.llr)[0])
        got = decode_batch(code, fb.llr, OracleEstimator(flips))
        assert np.array_equal(got, fb.u)

    def test_statistic_only_dependence(self):
        # two frames equal in (|l|, H l^b, p_inv(l^b)) must decode identically
        code = hamming_7_4()
        rng = np.random.default_rng(6)
        llr = rng.normal(size=(1, 7)) * 2
        llr2 = llr.copy()
        est = ZeroEstimator(code.k)
        a = decode_batch(code, llr, est)
        b = decode_batch(code, llr2, est)
        assert np.array_equal(a, b)

    def test_bad_estimator_output_rejected(self):
        code = hamming_7_4()

        class Wrong:
            def predict(self, stats):
                return np.zeros((stats.shape[0], 3))

        with pytest.raises(ValueError, match="estimator returned"):
            decode_batch(code, np.ones((2, 7)), Wrong())


class TestTrainingPairs:
    def test_zero_noise_target_is_zero(self):
        code = get_code("polar_16_8")
        rng = np.random.default_rng(7)
        fb = transmit_batch(code, build_constellation("qam16"),
                            NoiseConfig(1e-8), rng, 1)
        _, target = make_training_batch(fb, code)
        assert not np.any(target)

    def test_target_identity(self):
        # target = A (c xor l^b) on every record
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(5.0, code.rate, const.m)
        rng = np.random.default_rng(8)
        fb = transmit_batch(code, const, nc, rng, 200)
        _, targets = make_training_batch(fb, code)
        assert np.array_equal(targets,
                              code.p_inv_apply(fb.c ^ hard_split(fb.llr)[0]))

    def test_batch_contains_nonzero_targets_at_5db(self):
        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(5.0, code.rate, const.m)
        rng = np.random.default_rng(9)
        fb = transmit_batch(code, const, nc, rng, 4096)
        _, targets = make_training_batch(fb, code)
        rate = float(np.mean(targets))
        assert 0.0 < rate < 0.5


class TestMapNoiseEquivalence:
    def test_hamming_exhaustive(self):
        code = hamming_7_4()
        for hard in all_messages(7):
            um, un = map_noise_equivalence(code, 0.1, hard)
            assert np.array_equal(um, un)

    def test_codeword_input_returns_its_message(self):
        code = hamming_7_4()
        u = np.array([1, 0, 1, 1], dtype=np.uint8)
        um, un = map_noise_equivalence(code, 0.1, code.encode(u))
        assert np.array_equal(um, u)
        assert np.array_equal(un, u)

    def test_repetition_tie(self):
        code = repetition_2_1()
        um, un = map_noise_equivalence(code, 0.1,
                                       np.array([0, 1], dtype=np.uint8))
        assert np.array_equal(um, un)

    def test_large_k_rejected(self):
        with pytest.raises(ValueError, match="k <= 16"):
            map_noise_equivalence(get_code("polar_64_32"), 0.1,
                                  np.zeros(64, dtype=np.uint8))

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            map_noise_equivalence(hamming_7_4(), 0.7, np.zeros(7, dtype=np.uint8))
