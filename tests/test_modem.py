"""Constellations, Gray structure, AWGN statistics, exact and max-log LLRs."""

import mpmath
import numpy as np
import pytest

from bicmlab.modem import (
    LLR_CLAMP,
    Constellation,
    NoiseConfig,
    awgn,
    build_constellation,
    clamp_llrs,
    demap,
    hard_split,
    modulate,
)

ALL_KINDS = ("bpsk", "qpsk", "psk8", "qam16")

# the point and label tables each constellation had when it was written out
# point by point; the factor products must reproduce them bit for bit
POINTWISE_TABLES = {
    "bpsk": (
        [(1+0j), (-1+0j)],
        [[0], [1]]),
    "qpsk": (
        [(0.7071067811865475+0.7071067811865475j),
         (0.7071067811865475-0.7071067811865475j),
         (-0.7071067811865475+0.7071067811865475j),
         (-0.7071067811865475-0.7071067811865475j)],
        [[0, 0], [0, 1], [1, 0], [1, 1]]),
    "psk8": (
        [(0.9238795325112867+0.3826834323650898j),
         (0.38268343236508984+0.9238795325112867j),
         (-0.3826834323650897+0.9238795325112867j),
         (-0.9238795325112867+0.3826834323650899j),
         (-0.9238795325112868-0.38268343236508967j),
         (-0.38268343236509034-0.9238795325112865j),
         (0.38268343236509-0.9238795325112866j),
         (0.9238795325112865-0.3826834323650904j)],
        [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0],
         [1, 1, 0], [1, 1, 1], [1, 0, 1], [1, 0, 0]]),
    "qam16": (
        [(0.9486832980505138+0.9486832980505138j),
         (0.9486832980505138+0.31622776601683794j),
         (0.9486832980505138-0.31622776601683794j),
         (0.9486832980505138-0.9486832980505138j),
         (0.31622776601683794+0.9486832980505138j),
         (0.31622776601683794+0.31622776601683794j),
         (0.31622776601683794-0.31622776601683794j),
         (0.31622776601683794-0.9486832980505138j),
         (-0.31622776601683794+0.9486832980505138j),
         (-0.31622776601683794+0.31622776601683794j),
         (-0.31622776601683794-0.31622776601683794j),
         (-0.31622776601683794-0.9486832980505138j),
         (-0.9486832980505138+0.9486832980505138j),
         (-0.9486832980505138+0.31622776601683794j),
         (-0.9486832980505138-0.31622776601683794j),
         (-0.9486832980505138-0.9486832980505138j)],
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0], [0, 1, 0, 0],
         [0, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0], [1, 1, 0, 1],
         [1, 1, 1, 1], [1, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 1],
         [1, 0, 1, 0]]),
}


def llr_oracle(const, y, sigma2):
    """Direct-summation bit-LLRs at 50 decimal digits."""
    with mpmath.workdps(50):
        out = []
        for s in range(const.m):
            sums = {0: mpmath.mpf(0), 1: mpmath.mpf(0)}
            for x, lab in zip(const.points, const.labels):
                d2 = (mpmath.mpf(y.real) - mpmath.mpf(x.real)) ** 2 + \
                     (mpmath.mpf(y.imag) - mpmath.mpf(x.imag)) ** 2
                sums[int(lab[s])] += mpmath.e ** (-d2 / mpmath.mpf(sigma2))
            out.append(float(mpmath.log(sums[0]) - mpmath.log(sums[1])))
        return np.array(out)


class TestConstellations:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unit_energy(self, kind):
        c = build_constellation(kind)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_labels_bijective(self, kind):
        c = build_constellation(kind)
        assert sorted(c.label_ints().tolist()) == list(range(c.M))

    def test_bpsk(self):
        c = build_constellation("bpsk")
        assert c.m == 1
        assert np.array_equal(np.real(c.points), [1, -1])
        assert np.array_equal(c.labels[:, 0], [0, 1])

    def test_qam16_subset_sizes(self):
        c = build_constellation("qam16")
        for s in range(1, 5):
            for v in (0, 1):
                assert c.bit_subset(s, v).size == 8

    def test_psk8_gray_ring(self):
        c = build_constellation("psk8")
        order = np.argsort(np.angle(c.points))
        ints = c.label_ints()[order]
        for i in range(8):
            diff = ints[i] ^ ints[(i + 1) % 8]
            assert bin(diff).count("1") == 1

    def test_qam16_gray_grid(self):
        c = build_constellation("qam16")
        pts = c.points * np.sqrt(10)
        ints = c.label_ints()
        for i in range(16):
            for j in range(16):
                d = pts[i] - pts[j]
                if {abs(d.real), abs(d.imag)} == {0.0, 2.0}:
                    assert bin(ints[i] ^ ints[j]).count("1") == 1

    def test_psk8_structural_symmetries(self):
        c = build_constellation("psk8")

        def as_set(a):
            return {complex(round(z.real, 9), round(z.imag, 9)) for z in a}

        assert as_set(c.bit_subset(1, 0)) == as_set(np.conj(c.bit_subset(1, 1)))
        assert as_set(c.bit_subset(2, 0)) == as_set(-c.bit_subset(2, 1))
        assert as_set(c.bit_subset(3, 0)) == as_set(
            c.bit_subset(3, 1) * np.exp(1j * np.pi / 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_constellation("qam64")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_factor_product_matches_pointwise_tables(self, kind):
        c = build_constellation(kind)
        points, labels = POINTWISE_TABLES[kind]
        assert c.points.dtype == np.complex128 and c.labels.dtype == np.uint8
        assert np.array_equal(c.points, np.array(points))
        assert np.array_equal(c.labels, np.array(labels))

    def test_factors_span_at_most_two_dimensions(self):
        axis = ([[1.0], [-1.0]], [[0], [1]])
        with pytest.raises(ValueError, match="3 real dimensions"):
            Constellation("cube", (axis, axis, axis))
        ring = (np.eye(2), [[0], [1]])
        with pytest.raises(ValueError, match="3 real dimensions"):
            Constellation("ring-axis", (ring, axis))

    @pytest.mark.parametrize("coords, labels", [
        ([[1.0], [-1.0]], [[0], [1], [1]]),   # three label rows, two points
        ([[1.0], [-1.0]], [0, 1]),            # labels not (L, b)
        ([1.0, -1.0], [[0], [1]]),            # coords not (L, d)
    ])
    def test_factor_labels_must_match_coords(self, coords, labels):
        with pytest.raises(ValueError, match="a factor needs"):
            Constellation("bad", ((coords, labels),))


class TestNoiseConfig:
    def test_esn0(self):
        assert NoiseConfig.from_esn0_db(0.0).sigma2 == pytest.approx(1.0)
        assert NoiseConfig.from_esn0_db(10.0).sigma2 == pytest.approx(0.1)

    def test_ebn0_includes_rate_and_bits(self):
        nc = NoiseConfig.from_ebn0_db(0.0, code_rate=0.5, bits_per_symbol=4)
        assert nc.sigma2 == pytest.approx(1.0 / (0.5 * 4))

    def test_positive_required(self):
        with pytest.raises(ValueError):
            NoiseConfig(0.0)


class TestModulate:
    def test_bpsk_mapping(self):
        c = build_constellation("bpsk")
        x = modulate(c, np.array([0, 1], dtype=np.uint8))
        assert np.allclose(x, [1, -1])

    def test_constant_frame(self):
        c = build_constellation("qam16")
        lab = c.labels[5]
        x = modulate(c, np.tile(lab, 6))
        assert np.allclose(x, c.points[5])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_round_trip(self, kind):
        c = build_constellation(kind)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=c.m * 40).astype(np.uint8)
        llr = demap(c, modulate(c, bits), NoiseConfig(1e-6), kind="maxlog")
        hard, _ = hard_split(llr)
        assert np.array_equal(hard, bits)

    def test_labels_wider_than_a_byte(self):
        # 1024 points: two 32-level axes of 5 natural-binary bits each
        lv = np.arange(32) * 2.0 - 31.0
        axis = (lv[:, None] / np.sqrt(2 * np.mean(lv ** 2)),
                (np.arange(32)[:, None] >> np.arange(4, -1, -1)) & 1)
        c = Constellation("qam1024", (axis, axis))
        assert np.array_equal(modulate(c, c.labels.reshape(-1)), c.points)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="divisible"):
            modulate(build_constellation("qam16"), np.zeros(7, dtype=np.uint8))


class TestAwgn:
    def test_variance(self):
        rng = np.random.default_rng(1)
        nc = NoiseConfig(0.37)
        x = np.zeros(1_000_000, dtype=np.complex128)
        w = awgn(x, nc, rng)
        assert abs(np.mean(np.abs(w) ** 2) - nc.sigma2) <= 0.01 * nc.sigma2

    def test_deterministic_given_seed(self):
        nc = NoiseConfig(0.5)
        x = np.ones(64, dtype=np.complex128)
        a = awgn(x, nc, np.random.default_rng(9))
        b = awgn(x, nc, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_vanishing_noise(self):
        x = np.ones(32, dtype=np.complex128)
        y = awgn(x, NoiseConfig(1e-30), np.random.default_rng(2))
        assert np.allclose(y, x, atol=1e-12)


def bit_llrs(const, y, noise, kind):
    """demap's LLRs as a y.shape + (m,) array, one column per bit position."""
    return demap(const, y, noise, kind).reshape(y.shape + (const.m,))


class TestLlrs:
    def test_bpsk_exact_equals_maxlog(self):
        c = build_constellation("bpsk")
        rng = np.random.default_rng(3)
        y = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        nc = NoiseConfig.from_esn0_db(4.0)
        diff = bit_llrs(c, y, nc, "exact") - bit_llrs(c, y, nc, "maxlog")
        assert np.max(np.abs(diff)) <= 1e-12

    def test_qpsk_exact_equals_maxlog(self):
        c = build_constellation("qpsk")
        rng = np.random.default_rng(4)
        y = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        nc = NoiseConfig.from_esn0_db(4.0)
        exact = bit_llrs(c, y, nc, "exact")
        diff = np.abs(exact - bit_llrs(c, y, nc, "maxlog"))
        assert np.max(diff / np.maximum(np.abs(exact), 1.0)) <= 1e-12

    def test_psk8_boundary_zero(self):
        c = build_constellation("psk8")
        nc = NoiseConfig.from_esn0_db(5.0)
        # the real axis is the bit-1 max-log boundary and, by the conjugation
        # symmetry, also the exact-LLR boundary
        y = np.array([0.7 + 0j, 2.0 + 0j, 0.05 + 0j])
        assert np.max(np.abs(bit_llrs(c, y, nc, "exact")[:, 0])) <= 1e-9
        assert np.max(np.abs(bit_llrs(c, y, nc, "maxlog")[:, 0])) <= 1e-9

    def test_qam16_against_high_precision_oracle(self):
        c = build_constellation("qam16")
        nc = NoiseConfig.from_esn0_db(6.0)
        rng = np.random.default_rng(5)
        ys = rng.normal(scale=1.2, size=40) + 1j * rng.normal(scale=1.2, size=40)
        got = bit_llrs(c, ys, nc, "exact")
        for i, y in enumerate(ys):
            ref = llr_oracle(c, y, nc.sigma2)
            rel = np.abs(got[i] - ref) / np.maximum(np.abs(ref), 1e-30)
            assert np.max(rel) <= 1e-9

    def test_psk8_against_high_precision_oracle(self):
        c = build_constellation("psk8")
        nc = NoiseConfig.from_esn0_db(3.0)
        rng = np.random.default_rng(6)
        ys = rng.normal(size=25) + 1j * rng.normal(size=25)
        got = bit_llrs(c, ys, nc, "exact")
        for i, y in enumerate(ys):
            ref = llr_oracle(c, y, nc.sigma2)
            rel = np.abs(got[i] - ref) / np.maximum(np.abs(ref), 1e-30)
            assert np.max(rel) <= 1e-9

    def test_psk8_bit1_hard_decision_is_im_sign(self):
        c = build_constellation("psk8")
        nc = NoiseConfig.from_esn0_db(6.0)
        rng = np.random.default_rng(7)
        y = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        y = y[np.abs(y.imag) > 1e-6]
        l1 = bit_llrs(c, y, nc, "maxlog")[:, 0]
        assert np.array_equal(l1 < 0, y.imag < 0)

    def test_maxlog_approaches_exact_at_high_snr(self):
        c = build_constellation("qam16")
        y = np.array([0.31 + 0.22j])
        gaps = []
        for esn0 in (6.0, 16.0, 26.0):
            nc = NoiseConfig.from_esn0_db(esn0)
            e = bit_llrs(c, y, nc, "exact")
            a = bit_llrs(c, y, nc, "maxlog")
            gaps.append(np.max(np.abs(e - a) / np.abs(e)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_sign_consistency_at_6db(self):
        rng = np.random.default_rng(8)
        nc = NoiseConfig.from_esn0_db(6.0)
        for kind in ("psk8", "qam16"):
            c = build_constellation(kind)
            x = c.points[rng.integers(0, c.M, size=100_000)]
            y = awgn(x, nc, rng)
            agree = (np.sign(bit_llrs(c, y, nc, "exact"))
                     == np.sign(bit_llrs(c, y, nc, "maxlog")))
            assert np.mean(agree) >= 0.99

    @pytest.mark.parametrize("kind, bits", [("qam16", [0, 1]),
                                            ("qpsk", [0])])
    @pytest.mark.parametrize("metric", ["exact", "maxlog"])
    def test_in_phase_bits_ignore_quadrature(self, kind, bits, metric):
        c = build_constellation(kind)
        nc = NoiseConfig.from_esn0_db(3.0)
        rng = np.random.default_rng(10)
        y = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        moved = y.real + 1j * rng.normal(scale=3.0, size=2000)
        assert np.array_equal(bit_llrs(c, y, nc, metric)[:, bits],
                              bit_llrs(c, moved, nc, metric)[:, bits])

    def test_unknown_kind(self):
        c = build_constellation("qpsk")
        with pytest.raises(ValueError, match="demapper"):
            demap(c, np.zeros(4, dtype=np.complex128), NoiseConfig(1.0), "log")


class TestHardSplit:
    def test_basic(self):
        hard, rel = hard_split(np.array([3.2, -0.1]))
        assert np.array_equal(hard, [0, 1])
        assert np.allclose(rel, [3.2, 0.1])

    def test_tie_convention(self):
        hard, rel = hard_split(np.array([0.0]))
        assert hard[0] == 0 and rel[0] == 0

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        l = rng.normal(size=1000)
        l = l[l != 0]
        hard, rel = hard_split(l)
        assert np.allclose((1 - 2 * hard.astype(float)) * rel, l)

    def test_clamp(self):
        out = clamp_llrs(np.array([-1e9, 1e9, 3.0]))
        assert np.array_equal(out, [-LLR_CLAMP, LLR_CLAMP, 3.0])
