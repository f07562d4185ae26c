"""GF(2) algebra: alist I/O, ranks, generators, pseudo-inverses, codes."""

import importlib.util
import pathlib

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

ROOT = pathlib.Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_shipped_polar_alist_matches_its_generator(self, n):
        spec = importlib.util.spec_from_file_location(
            "make_polar_alists", ROOT / "tools" / "make_polar_alists.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        shipped = ROOT / "src" / "bicmlab" / "data" / f"polar_{n}_{n // 2}.alist"
        text = dump_alist(tool.polar_parity_check(n, n // 2))
        assert text.encode("ascii") == shipped.read_bytes()


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
        h = derive_generator(g)  # dual basis works as a parity check here
        a = build_pseudo_inverse(g, h)
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
        a1 = build_pseudo_inverse(g, h)
        a2 = build_pseudo_inverse(g, h)
        assert np.array_equal(a1, a2)


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
            shared += [code.codebook(), code.messages()]
        for m in shared:
            assert not m.flags.writeable

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
