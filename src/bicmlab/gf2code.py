"""GF(2) linear block code algebra.

Binary linear codes are handled as dense uint8 arrays.  Row operations in
Gaussian elimination are whole-row XORs, and bulk encode/syndrome products
go through BLAS (float matmul, then reduce mod 2), which is orders of
magnitude faster than integer matmul for the Monte-Carlo loops.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AlistError",
    "LinearCode",
    "gf2_matmul",
    "gf2_rank",
    "gf2_rref",
    "load_alist",
    "dump_alist",
    "derive_generator",
    "build_pseudo_inverse",
    "repetition_2_1",
    "hamming_7_4",
    "ext_hamming_8_4",
    "get_code",
    "builtin_code_names",
]


class AlistError(ValueError):
    """Malformed alist input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _as_bits(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.uint8)
    if not np.all(a <= 1):
        raise ValueError("entries must be 0 or 1")
    return a


# a float32 sum of 0/1 products is an exact integer up to 2^24 terms
_GF2_MATMUL_MAX_INNER = 1 << 24


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2) of 0/1 arrays, through a float32 product.

    Exact while the inner dimension is at most 2^24; a longer one raises.
    """
    inner = np.shape(a)[-1]
    if inner > _GF2_MATMUL_MAX_INNER:
        raise ValueError(f"gf2_matmul: inner dimension {inner} exceeds "
                         f"2^24 = {_GF2_MATMUL_MAX_INNER}, past which float32 "
                         f"sums are not exact")
    prod = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    return prod.astype(np.int32).astype(np.uint8) & 1


def gf2_rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    a = _as_bits(m).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        # clear every other 1 in this column with one masked row-xor
        mask = a[:, c].astype(bool)
        mask[r] = False
        a[mask] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def gf2_rank(m: np.ndarray) -> int:
    """Row rank of a binary matrix over GF(2)."""
    return len(gf2_rref(m)[1])


def load_alist(text: str) -> np.ndarray:
    """Parse alist text into a dense (rows x cols) parity-check matrix.

    Format: line 1 "n m" (n columns, m rows), line 2 max column/row degree,
    line 3 the n column degrees, line 4 the m row degrees, then n lines of
    1-based row indices per column and m lines of 1-based column indices per
    row.  Zero entries beyond the declared degree are padding and ignored.
    """
    lines = text.splitlines()

    def ints(lineno: int) -> list[int]:
        if lineno > len(lines):
            raise AlistError(lineno, "unexpected end of file")
        try:
            return [int(t) for t in lines[lineno - 1].split()]
        except ValueError:
            raise AlistError(lineno, "non-integer token") from None

    header = ints(1)
    if len(header) != 2 or header[0] <= 0 or header[1] <= 0:
        raise AlistError(1, "malformed header, expected 'n m'")
    n, m = header
    dmax = ints(2)
    if len(dmax) != 2:
        raise AlistError(2, "expected max column and row degree")
    col_deg = ints(3)
    if len(col_deg) != n:
        raise AlistError(3, f"expected {n} column degrees, got {len(col_deg)}")
    row_deg = ints(4)
    if len(row_deg) != m:
        raise AlistError(4, f"expected {m} row degrees, got {len(row_deg)}")
    if sum(col_deg) != sum(row_deg):
        raise AlistError(4, "column and row degree sums disagree")

    mat = np.zeros((m, n), dtype=np.uint8)

    def fill(lineno: int, degree: int, limit: int) -> list[int]:
        entries = ints(lineno)
        live = [e for e in entries if e != 0]
        if len(live) != degree:
            raise AlistError(
                lineno, f"degree mismatch: declared {degree}, found {len(live)}"
            )
        if len(entries) > degree and any(e != 0 for e in entries[degree:]):
            raise AlistError(lineno, "nonzero entry beyond declared degree")
        for e in entries[:degree]:
            if e < 1 or e > limit:
                raise AlistError(lineno, f"index out of range: {e}")
        return entries[:degree]

    for j in range(n):
        for i in fill(5 + j, col_deg[j], m):
            mat[i - 1, j] = 1
    for i in range(m):
        cols = fill(5 + n + i, row_deg[i], n)
        for j in cols:
            if mat[i, j - 1] != 1:
                raise AlistError(
                    5 + n + i, f"row entry {j} absent from column perspective"
                )
        if int(mat[i].sum()) != row_deg[i]:
            raise AlistError(5 + n + i, "row degree inconsistent with columns")
    return mat


def dump_alist(mat: np.ndarray) -> str:
    """Serialize a binary matrix to alist text (entries padded with zeros)."""
    mat = _as_bits(mat)
    m, n = mat.shape
    col_idx = [list(np.nonzero(mat[:, j])[0] + 1) for j in range(n)]
    row_idx = [list(np.nonzero(mat[i, :])[0] + 1) for i in range(m)]
    dc = max(len(c) for c in col_idx)
    dr = max(len(r) for r in row_idx)
    out = io.StringIO()
    out.write(f"{n} {m}\n{dc} {dr}\n")
    out.write(" ".join(str(len(c)) for c in col_idx) + "\n")
    out.write(" ".join(str(len(r)) for r in row_idx) + "\n")
    for c in col_idx:
        out.write(" ".join(str(v) for v in c + [0] * (dc - len(c))) + "\n")
    for r in row_idx:
        out.write(" ".join(str(v) for v in r + [0] * (dr - len(r))) + "\n")
    return out.getvalue()


def derive_generator(h: np.ndarray) -> np.ndarray:
    """Generator matrix whose row space is the null space of H.

    Requires H of full row rank n-k; raises otherwise.
    """
    h = _as_bits(h)
    m, n = h.shape
    rref, pivots = gf2_rref(h)
    if len(pivots) != m:
        raise ValueError(
            f"parity-check matrix is rank-deficient: rank {len(pivots)} < {m} rows"
        )
    free = np.setdiff1d(np.arange(n), pivots)
    if not free.size:
        raise ValueError("code has no free columns (k = 0), no generator exists")
    # row i is 1 at free[i] and, at each pivot, rref's entry in that column
    g = np.zeros((free.size, n), dtype=np.uint8)
    g[np.arange(free.size), free] = 1
    g[:, pivots] = rref[:, free].T
    return g


def build_pseudo_inverse(g: np.ndarray) -> np.ndarray:
    """k x n matrix A with A @ G.T = I_k, i.e. A maps codewords to messages.

    A is not unique; this one inverts G on the lexicographically first
    information set J (first k independent columns of G), which makes builds
    reproducible.  One reduction of [G | I_k] finds both: its pivots are J
    and its right block is G_J^-1, so A[:, J] = (G_J^-1)^T.
    """
    g = _as_bits(g)
    k, n = g.shape
    rref, pivots = gf2_rref(np.concatenate([g, np.eye(k, dtype=np.uint8)],
                                           axis=1))
    rank = sum(p < n for p in pivots)
    if rank != k:
        raise ValueError(f"generator is rank-deficient: rank {rank} < k = {k}")
    a = np.zeros((k, n), dtype=np.uint8)
    a[:, pivots] = rref[:, n:].T
    return a


@dataclass(frozen=True)
class LinearCode:
    """(n, k) binary linear block code with parity check H, generator G and
    pseudo-inverse A (A @ c = u for every codeword c = encode(u)).

    Immutable after construction; safe to share across simulation workers.
    """

    name: str
    h: np.ndarray
    g: np.ndarray
    a: np.ndarray
    _codebook: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        h, g, a = _as_bits(self.h), _as_bits(self.g), _as_bits(self.a)
        n = h.shape[1]
        k = g.shape[0]
        if g.shape[1] != n or a.shape != (k, n):
            raise ValueError("inconsistent H/G/A shapes")
        if gf2_rank(h) != n - k:
            raise ValueError("rank(H) != n - k")
        if gf2_rank(g) != k:
            raise ValueError("rank(G) != k")
        if np.any(gf2_matmul(g, h.T)):
            raise ValueError("G @ H.T != 0")
        if not np.array_equal(gf2_matmul(a, g.T), np.eye(k, dtype=np.uint8)):
            raise ValueError("A @ G.T != I_k")
        if gf2_rank(np.concatenate([h.T, a.T], axis=1)) != n:
            raise ValueError("[H^T, A^T] is not full rank")
        for m in (h, g, a):
            m.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        return self.g.shape[0]

    @property
    def rate(self) -> float:
        return self.k / self.n

    @classmethod
    def from_parity_check(cls, h, name: str = "custom") -> "LinearCode":
        h = _as_bits(h)
        g = derive_generator(h)
        return cls(name=name, h=h, g=g, a=build_pseudo_inverse(g))

    @classmethod
    def from_alist(cls, text: str, name: str = "alist") -> "LinearCode":
        return cls.from_parity_check(load_alist(text), name=name)

    def encode(self, u: np.ndarray) -> np.ndarray:
        """c = u @ G over GF(2); u may be (k,) or a (..., k) batch."""
        u = _as_bits(u)
        if u.shape[-1] != self.k:
            raise ValueError(f"message length {u.shape[-1]} != k = {self.k}")
        return gf2_matmul(u, self.g)

    def syndrome(self, v: np.ndarray) -> np.ndarray:
        """H @ v over GF(2); v may be (n,) or a (..., n) batch."""
        v = _as_bits(v)
        if v.shape[-1] != self.n:
            raise ValueError(f"word length {v.shape[-1]} != n = {self.n}")
        return gf2_matmul(v, self.h.T)

    def p_inv_apply(self, v: np.ndarray) -> np.ndarray:
        """A @ v over GF(2); the hard-decision message estimate."""
        v = _as_bits(v)
        if v.shape[-1] != self.n:
            raise ValueError(f"word length {v.shape[-1]} != n = {self.n}")
        return gf2_matmul(v, self.a.T)

    def codebook(self) -> np.ndarray:
        """All 2^k codewords, sorted lexicographically (the order in which
        exhaustive MAP scores them); cached, read-only.  k <= 20 only."""
        if self.k > 20:
            raise ValueError(f"codebook of 2^{self.k} codewords is too large")
        if "lex" not in self._codebook:
            cw = self.encode(all_messages(self.k))
            lex = cw[np.lexsort(cw.T[::-1])]
            lex.setflags(write=False)
            self._codebook["lex"] = lex
        return self._codebook["lex"]


def all_messages(k: int) -> np.ndarray:
    """All 2^k binary k-tuples in lexicographic order (row 0 = all zeros)."""
    ints = np.arange(1 << k, dtype=np.int64)
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    return ((ints[:, None] >> shifts) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# built-in codes
# ---------------------------------------------------------------------------

def repetition_2_1() -> LinearCode:
    return LinearCode.from_parity_check(np.array([[1, 1]]), name="repetition_2_1")


# columns are the binary expansions of 1..7
_HAMMING_H = np.array([[1, 0, 1, 0, 1, 0, 1],
                       [0, 1, 1, 0, 0, 1, 1],
                       [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)


def hamming_7_4() -> LinearCode:
    return LinearCode.from_parity_check(_HAMMING_H, name="hamming_7_4")


def ext_hamming_8_4() -> LinearCode:
    # Hamming's H padded with a zero column, and an overall parity row
    h = np.zeros((4, 8), dtype=np.uint8)
    h[:3, :7] = _HAMMING_H
    h[3, :] = 1
    return LinearCode.from_parity_check(h, name="ext_hamming_8_4")


def _polar(n: int, k: int) -> LinearCode:
    """The (n, k) polar code of Arikan ("Channel polarization", IEEE Trans.
    IT 55(7), 2009) for the BEC(0.5) design channel.

    Each split maps a Bhattacharyya parameter z to 2z - z^2 and z^2; the k
    synthetic channels of smallest z (a stable argsort, so ties go to the
    lower index) pick the rows of the log2(n)-fold Kronecker power of
    [[1, 0], [1, 1]] that span the code, and H is a basis of their dual.
    G is the basis derive_generator finds for that H, not the Kronecker
    rows: it fixes which message each codeword carries, so changing it
    would move every count.
    """
    kernel = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    z = np.array([0.5])
    f = np.ones((1, 1), dtype=np.uint8)
    while len(z) < n:
        z = np.stack([2 * z - z * z, z * z], axis=1).ravel()
        f = np.kron(f, kernel)
    info = np.sort(np.argsort(z, kind="stable")[:k])
    return LinearCode.from_parity_check(derive_generator(f[info]),
                                        name=f"polar_{n}_{k}")


_BUILTINS = {
    "repetition_2_1": repetition_2_1,
    "hamming_7_4": hamming_7_4,
    "ext_hamming_8_4": ext_hamming_8_4,
    "polar_16_8": lambda: _polar(16, 8),
    "polar_32_16": lambda: _polar(32, 16),
    "polar_64_32": lambda: _polar(64, 32),
    "polar_128_64": lambda: _polar(128, 64),
}


def builtin_code_names() -> list[str]:
    return list(_BUILTINS)


@functools.cache
def _builtin_code(name: str) -> LinearCode:
    return _BUILTINS[name]()


def get_code(name: str) -> LinearCode:
    """Built-in code by name, built once and shared (it is read-only), or a
    code loaded from an alist file path, read on every call.  A file that is
    not an ascii alist of a valid code raises a ValueError naming it."""
    if name in _BUILTINS:
        return _builtin_code(name)
    try:
        with open(name, "rb") as fh:
            data = fh.read()
    except OSError:
        raise ValueError(
            f"unknown code {name!r}; built-ins: {', '.join(_BUILTINS)}"
        ) from None
    try:
        return LinearCode.from_alist(data.decode("ascii"), name=name)
    except UnicodeDecodeError as exc:
        raise ValueError(f"alist file {name!r} is not ascii: byte "
                         f"{data[exc.start]:#04x} at offset {exc.start}"
                         ) from None
    except ValueError as exc:       # an AlistError's message has its line
        raise ValueError(f"alist file {name!r}: {exc}") from exc
