"""GF(2) algebra: alist I/O, ranks, generators, pseudo-inverses, codes."""

import hashlib

import numpy as np
import pytest

from bicmlab.gf2code import (
    AlistError,
    all_messages,
    build_pseudo_inverse,
    builtin_code_names,
    derive_generator,
    dump_alist,
    ext_hamming_8_4,
    get_code,
    gf2_matmul,
    gf2_rank,
    hamming_7_4,
    load_alist,
    repetition_2_1,
)

# sha256 of the bytes of H, G and A of each built-in code, with their
# shapes: a change to any construction shows here
BUILTIN_FINGERPRINTS = {
    "repetition_2_1": {
        "h": ((1, 2), "9dcf97a184f32623d11a73124ceb99a5"
              "709b083721e878a16d78f596718ba7b2"),
        "g": ((1, 2), "9dcf97a184f32623d11a73124ceb99a5"
              "709b083721e878a16d78f596718ba7b2"),
        "a": ((1, 2), "47dc540c94ceb704a23875c11273e16b"
              "b0b8a87aed84de911f2133568115f254"),
    },
    "hamming_7_4": {
        "h": ((3, 7), "a26f9b5b9357ddac97a81034d1cd60e6"
              "1b9d1bf1c0d2bebfb48297b578e29089"),
        "g": ((4, 7), "dce2dea262aa0a83a9564c497088899f"
              "252d1fa1a72a1ab7f9011ed0f9716c22"),
        "a": ((4, 7), "7a478394d8042a475e9b462fa818eaaa"
              "298f03006d58db0901e81726742d55f6"),
    },
    "ext_hamming_8_4": {
        "h": ((4, 8), "f6f6c76fa61153447845c7ef9b081e9b"
              "e323bf164764049cb57d067b8c277468"),
        "g": ((4, 8), "7701ade06636806cf9f7670ebe2f64e6"
              "a739c8c3ef743d6fcee6237c1237c5e0"),
        "a": ((4, 8), "2c6c4877772d35d10596132be19a68de"
              "a5884249aeae454dcc0eb4364d4c308d"),
    },
    "polar_16_8": {
        "h": ((8, 16), "26b8dbc32d917a10c6bc68959e220b47"
              "fdd174a8839b0d7c50ab0c06d3e9e4f9"),
        "g": ((8, 16), "26b8dbc32d917a10c6bc68959e220b47"
              "fdd174a8839b0d7c50ab0c06d3e9e4f9"),
        "a": ((8, 16), "de876554f84fd1c2da29d270199bb3bb"
              "67e5fab6ce3218054f31d804162aa682"),
    },
    "polar_32_16": {
        "h": ((16, 32), "f97c5a3d3c97f187149d75723f119e87"
              "9bf7094c4ec75d8be8c131bc55017449"),
        "g": ((16, 32), "f97c5a3d3c97f187149d75723f119e87"
              "9bf7094c4ec75d8be8c131bc55017449"),
        "a": ((16, 32), "a76ed379db90d71b4df638176aa3cd77"
              "f107dd89144bb4c0f2d9090989657469"),
    },
    "polar_64_32": {
        "h": ((32, 64), "963b864c3b2e3fd145d2b4790138f709"
              "d3b0745218f4e3897a37606d6432eb52"),
        "g": ((32, 64), "963b864c3b2e3fd145d2b4790138f709"
              "d3b0745218f4e3897a37606d6432eb52"),
        "a": ((32, 64), "cadb659f49bbcf5290bc4eff0236f548"
              "9a0fbc23dd7de7974e43ff69bd174ccd"),
    },
    "polar_128_64": {
        "h": ((64, 128), "a50faa46d5fd40ad2d697e134e0fc517"
              "353872bbbbff35d15f45fb4a6dab32a2"),
        "g": ((64, 128), "a50faa46d5fd40ad2d697e134e0fc517"
              "353872bbbbff35d15f45fb4a6dab32a2"),
        "a": ((64, 128), "908e2ff5b7e18ad82e9053666e812d6e"
              "50adca101cc1453f23f3e6df2027c0f1"),
    },
}


def rank_by_rowspace(m: np.ndarray) -> int:
    """Independent oracle: size of the row space by exhaustive enumeration."""
    m = np.asarray(m, dtype=np.uint8)
    rows, n = m.shape
    assert rows <= 16, "oracle is exhaustive"
    seen = set()
    for combo in range(1 << rows):
        acc = np.zeros(n, dtype=np.uint8)
        for i in range(rows):
            if (combo >> i) & 1:
                acc ^= m[i]
        seen.add(acc.tobytes())
    return int(np.log2(len(seen)))


def rank_by_elimination(m: np.ndarray) -> int:
    """Independent oracle: textbook forward elimination."""
    a = np.asarray(m, dtype=np.uint8).copy()
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, c]:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        rank += 1
    return rank


class TestRank:
    def test_identity(self):
        assert gf2_rank(np.eye(4, dtype=np.uint8)) == 4

    def test_zero(self):
        assert gf2_rank(np.zeros((3, 5), dtype=np.uint8)) == 0

    def test_joint_matrix_full_rank_for_hamming(self):
        code = hamming_7_4()
        b = np.concatenate([code.h.T, code.a.T], axis=1)
        assert gf2_rank(b) == 7
        assert rank_by_rowspace(b) == 7

    def test_matches_enumeration_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(0, 2, size=(rng.integers(1, 9), rng.integers(1, 12)))
            assert gf2_rank(m) == rank_by_rowspace(m)


class TestMatmul:
    def test_matches_int64_product_at_long_inner_dimension(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 2, size=(6, 5000), dtype=np.uint8)
        b = rng.integers(0, 2, size=(5000, 9), dtype=np.uint8)
        want = (a.astype(np.int64) @ b.astype(np.int64)) & 1
        got = gf2_matmul(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)
        assert np.array_equal(gf2_matmul(a[0], b), want[0])

    def test_inner_dimension_past_2_24_raises(self):
        inner = (1 << 24) + 1
        a = np.broadcast_to(np.uint8(1), (1, inner))
        b = np.broadcast_to(np.uint8(1), (inner, 1))
        with pytest.raises(ValueError, match=f"inner dimension {inner}"):
            gf2_matmul(a, b)


class TestAlist:
    def test_hamming_round_trip_bitwise(self):
        h = hamming_7_4().h
        assert np.array_equal(load_alist(dump_alist(h)), h)

    def test_zero_index_rejected(self):
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        text = dump_alist(h).replace("\n1 2\n", "\n0 2\n", 1)
        with pytest.raises(AlistError, match="index out of range|degree"):
            load_alist(text)

    def test_malformed_header(self):
        with pytest.raises(AlistError, match="line 1"):
            load_alist("banana\n")

    def test_degree_mismatch_names_line(self):
        h = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        lines = dump_alist(h).splitlines()
        lines[2] = "2 2"  # column degree list now inconsistent
        with pytest.raises(AlistError):
            load_alist("\n".join(lines) + "\n")

    def test_zero_padding_ignored(self):
        # irregular matrix forces padded entry lines
        h = np.array([[1, 1, 1], [0, 0, 1]], dtype=np.uint8)
        text = dump_alist(h)
        assert np.array_equal(load_alist(text), h)

    def test_polar_64_32_full_rank(self):
        h = get_code("polar_64_32").h
        assert h.shape == (32, 64)
        assert rank_by_elimination(h) == 32


class TestDeriveGenerator:
    def test_repetition(self):
        g = derive_generator(np.array([[1, 1]], dtype=np.uint8))
        assert np.array_equal(g, [[1, 1]])

    def test_hamming_identities(self):
        h = hamming_7_4().h
        g = derive_generator(h)
        assert gf2_rank(g) == 4
        assert not np.any(gf2_matmul(g, h.T))

    def test_full_rank_h_has_no_generator(self):
        with pytest.raises(ValueError, match="no free columns|no generator"):
            derive_generator(np.eye(5, dtype=np.uint8))

    def test_rank_deficient_h_rejected(self):
        h = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match="rank"):
            derive_generator(h)


class TestPseudoInverse:
    def test_systematic_extraction_accepted(self):
        g = np.array([[1, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)
        a = build_pseudo_inverse(g)
        assert np.array_equal(gf2_matmul(a, g.T), np.eye(2, dtype=np.uint8))

    def test_hamming_exhaustive(self):
        code = hamming_7_4()
        msgs = all_messages(4)
        assert np.array_equal(code.p_inv_apply(code.encode(msgs)), msgs)

    def test_repetition_selects_first_position(self):
        code = repetition_2_1()
        assert np.array_equal(code.a, [[1, 0]])

    def test_deterministic(self):
        h = hamming_7_4().h
        g = derive_generator(h)
        a1 = build_pseudo_inverse(g)
        a2 = build_pseudo_inverse(g)
        assert np.array_equal(a1, a2)

    def test_rank_deficient_generator_rejected(self):
        g = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
        with pytest.raises(ValueError,
                           match=r"^generator is rank-deficient: rank 1 < k = 2$"):
            build_pseudo_inverse(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_full_rank_h_against_definition(self, seed):
        # G spans the null space of H, A inverts G, and A lives on the
        # information set that a greedy left-to-right rank test picks
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, n))
        h = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        while rank_by_elimination(h) != m:
            h = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        k = n - m
        g = derive_generator(h)
        a = build_pseudo_inverse(g)
        assert g.shape == (k, n) and a.shape == (k, n)
        assert not np.any(gf2_matmul(g, h.T))
        assert rank_by_elimination(g) == k
        assert np.array_equal(gf2_matmul(a, g.T), np.eye(k, dtype=np.uint8))
        info = []
        for j in range(n):
            if rank_by_elimination(g[:, info + [j]]) > len(info):
                info.append(j)
        assert len(info) == k
        outside = np.setdiff1d(np.arange(n), info)
        assert not np.any(a[:, outside])


class TestLinearCode:
    @pytest.mark.parametrize("name", builtin_code_names())
    def test_construction_invariants(self, name):
        code = get_code(name)
        k, n = code.k, code.n
        assert not np.any(gf2_matmul(code.g, code.h.T))
        assert gf2_rank(code.g) == k
        assert gf2_rank(code.h) == n - k
        assert np.array_equal(gf2_matmul(code.a, code.g.T),
                              np.eye(k, dtype=np.uint8))
        assert gf2_rank(np.concatenate([code.h.T, code.a.T], axis=1)) == n

    def test_encode_zero_message(self):
        code = hamming_7_4()
        assert not np.any(code.encode(np.zeros(4, dtype=np.uint8)))

    def test_hamming_codewords_distinct_zero_syndrome(self):
        code = hamming_7_4()
        cws = code.encode(all_messages(4))
        assert len({c.tobytes() for c in cws}) == 16
        assert not np.any(code.syndrome(cws))

    def test_repetition_encode(self):
        assert np.array_equal(repetition_2_1().encode(np.array([1])), [1, 1])

    def test_single_bit_error_syndromes_distinct(self):
        code = hamming_7_4()
        errs = np.eye(7, dtype=np.uint8)
        syn = code.syndrome(errs)
        assert len({s.tobytes() for s in syn}) == 7
        assert np.all(syn.sum(axis=1) > 0)

    def test_syndrome_codeword_invariance(self):
        code = ext_hamming_8_4()
        rng = np.random.default_rng(1)
        v = rng.integers(0, 2, size=(100, 8)).astype(np.uint8)
        c = code.encode(rng.integers(0, 2, size=(100, 4)).astype(np.uint8))
        assert np.array_equal(code.syndrome(v), code.syndrome(v ^ c))

    def test_encode_linearity(self):
        code = get_code("polar_32_16")
        rng = np.random.default_rng(2)
        u1 = rng.integers(0, 2, size=(200, 16)).astype(np.uint8)
        u2 = rng.integers(0, 2, size=(200, 16)).astype(np.uint8)
        assert np.array_equal(code.encode(u1 ^ u2),
                              code.encode(u1) ^ code.encode(u2))

    def test_p_inv_linearity(self):
        code = get_code("polar_16_8")
        rng = np.random.default_rng(3)
        c = code.encode(rng.integers(0, 2, size=(200, 8)).astype(np.uint8))
        w = rng.integers(0, 2, size=(200, 16)).astype(np.uint8)
        assert np.array_equal(code.p_inv_apply(c ^ w),
                              code.p_inv_apply(c) ^ code.p_inv_apply(w))

    def test_message_recovery_under_noise_identity(self):
        # p_inv(encode(u) xor w) xor A w = u, the decoding identity
        rng = np.random.default_rng(4)
        code = hamming_7_4()
        u = rng.integers(0, 2, size=(10_000, 4)).astype(np.uint8)
        w = rng.integers(0, 2, size=(10_000, 7)).astype(np.uint8)
        got = code.p_inv_apply(code.encode(u) ^ w) ^ code.p_inv_apply(w)
        assert np.array_equal(got, u)

    def test_length_mismatches_raise(self):
        code = hamming_7_4()
        with pytest.raises(ValueError):
            code.encode(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            code.syndrome(np.zeros(6, dtype=np.uint8))
        with pytest.raises(ValueError):
            code.p_inv_apply(np.zeros(6, dtype=np.uint8))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown code"):
            get_code("no_such_code")

    @pytest.mark.parametrize("name", ["hamming_7_4", "polar_16_8",
                                      "polar_128_64"])
    def test_builtin_built_once_and_read_only(self, name):
        code = get_code(name)
        assert get_code(name) is code
        shared = [code.h, code.g, code.a]
        if code.k <= 20:
            shared.append(code.codebook())
        for m in shared:
            assert not m.flags.writeable

    @pytest.mark.parametrize("name", list(BUILTIN_FINGERPRINTS))
    def test_builtin_fingerprint(self, name):
        code = get_code(name)
        got = {f: (getattr(code, f).shape,
                   hashlib.sha256(getattr(code, f).tobytes()).hexdigest())
               for f in "hga"}
        assert got == BUILTIN_FINGERPRINTS[name]
        assert builtin_code_names() == list(BUILTIN_FINGERPRINTS)

    @pytest.mark.parametrize("name", [n for n in BUILTIN_FINGERPRINTS
                                      if n.startswith("polar_")])
    def test_polar_alist_round_trip(self, tmp_path, name):
        code = get_code(name)
        path = tmp_path / f"{name}.alist"
        path.write_text(dump_alist(code.h), encoding="ascii")
        loaded = get_code(str(path))
        for f in "hga":
            assert np.array_equal(getattr(loaded, f), getattr(code, f))

    def test_alist_path_read_on_every_call(self, tmp_path):
        path = tmp_path / "code.alist"
        path.write_text(dump_alist(hamming_7_4().h), encoding="ascii")
        first = get_code(str(path))
        path.write_text(dump_alist(ext_hamming_8_4().h), encoding="ascii")
        assert first.n == 7 and get_code(str(path)).n == 8

    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe7 3\n",
         "alist file {!r} is not ascii: byte 0xff at offset 0"),
        (b"7 3\n", "alist file {!r}: line 2: unexpected end of file"),
        (b"banana\n", "alist file {!r}: line 1: non-integer token"),
    ], ids=["not-ascii", "truncated", "not-an-alist"])
    def test_bad_alist_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "bad.alist"
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            get_code(str(path))
        assert str(exc.value) == message.format(str(path))
