"""Reference decoders on (B, n) batches of frames: exhaustive correlation
MAP, ordered statistics decoding over the most reliable basis, and the
maximum-likelihood bound tally.

All candidate comparisons use the correlation metric sum_i (1 - 2 c_i) l_i,
which is the ML statistic for symmetric memoryless LLR channels; ties break
toward the lexicographically smallest codeword so exhaustive cross-checks
are exact.  Both decoders return (B, n) codewords and (B,) metrics.

OSD runs the Gauss-Jordan eliminations of all frames in lock-step on
bit-packed rows, and scores the weight-1 and weight-2 flip patterns from one
Gram matrix per frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf2code import LinearCode

__all__ = [
    "correlation_metric",
    "map_decode",
    "osd_decode",
    "ErrorCounter",
    "ml_bound_update",
]


def correlation_metric(codewords: np.ndarray, llr: np.ndarray) -> np.ndarray:
    """sum_i (1 - 2 c_i) l_i along the last axis; codewords and llr
    broadcast, so one frame may score many codewords or each frame its own.

    Each row is summed on its own, so a codeword scores the same in any
    batch."""
    c = np.asarray(codewords, dtype=np.float64)
    return np.sum((1.0 - 2.0 * c) * np.asarray(llr, dtype=np.float64),
                  axis=-1)


def _frames(code: LinearCode, llr: np.ndarray) -> np.ndarray:
    """llr as float64, refused unless it is a (B, n) batch."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 2 or llr.shape[1] != code.n:
        raise ValueError(f"llr shape {llr.shape} is not (B, n) with "
                         f"n = {code.n}")
    return llr


def _lex_best(codewords: np.ndarray, metrics: np.ndarray) -> tuple[np.ndarray, float]:
    """Highest metric; on exact ties the lexicographically smallest codeword."""
    best = np.max(metrics)
    idx = np.nonzero(metrics == best)[0]
    if idx.size > 1:
        rows = codewords[idx]
        order = np.lexsort(rows.T[::-1])
        return rows[order[0]].copy(), float(best)
    return codewords[idx[0]].copy(), float(best)


def map_decode(code: LinearCode, llr: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive MAP: score all 2^k codewords of every frame in one
    (B, n) x (n, 2^k) product and return each frame's best codeword and
    metric."""
    if code.k > 20:
        raise ValueError(f"k = {code.k} too large for exhaustive decoding")
    llr = _frames(code, llr)
    cws = code.codebook()
    metrics = llr @ (1.0 - 2.0 * cws.astype(np.float64)).T     # (B, 2^k)
    best = np.argmax(metrics, axis=1)
    cw = cws[best]
    metric = metrics[np.arange(len(llr)), best]
    # exact ties (possible only for degenerate LLRs)
    for i in np.flatnonzero(np.sum(metrics == metric[:, None], axis=1) > 1):
        cw[i], _ = _lex_best(cws, metrics[i])
    return cw, metric


def osd_decode(code: LinearCode, llr: np.ndarray, order: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Ordered statistics decoding of a (B, n) batch.

    Sorts positions by decreasing reliability, Gauss-eliminates the generator
    onto the first k independent positions in that ranking (the most reliable
    basis), hard-decides the basis, and keeps the correlation maximizer among
    the re-encodings of every flip pattern of weight <= order on it.  Returns
    (B, n) codewords and (B,) metrics.
    """
    llr = _frames(code, llr)
    _test_patterns(code.k, order)       # refuses a bad order up front
    ranking = np.argsort(-np.abs(llr), axis=1, kind="stable")
    rows, basis = _reduce_on_ranking(code.g, ranking)
    cw = np.empty(llr.shape, dtype=np.uint8)
    metric = np.empty(len(llr))
    for s in range(0, len(llr), _SLICE_FRAMES):
        sl = slice(s, s + _SLICE_FRAMES)
        cw[sl], metric[sl] = _osd_slice(code, llr[sl], ranking[sl],
                                        rows[sl], basis[sl], order)
    return cw, metric


# frames scored together: bounds the unpacked per-frame matrices and the
# pattern score table to a few MB at order 2
_SLICE_FRAMES = 128

# weight-3+ patterns are re-encoded explicitly, in blocks of about this many
# codeword bits over the slice
_BLOCK_ENTRIES = 1 << 20


def _osd_slice(code: LinearCode, llr: np.ndarray, ranking: np.ndarray,
               rows: np.ndarray, basis: np.ndarray, order: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Best codewords (B, n) and metrics (B,) of a slice of frames, given
    their reliability ranking and _reduce_on_ranking's rows and basis.

    In the reliability-permuted domain, with R the reduced generator and c0
    the re-encoded hard basis, the flip pattern e scores
    M0 - 2 sum_{j in supp(e R)} s_j with s = (1 - 2 c0) * l.  Weights 1 and 2
    read that off d = R s and the Gram matrix R diag(s) R^T.  These float
    scores only shortlist: every pattern within a rounding tolerance of the
    best is re-encoded and scored with correlation_metric, and exact ties go
    to _lex_best, as in map_decode.
    """
    k = code.k
    l_perm = np.take_along_axis(llr, ranking, axis=1)
    rf = np.unpackbits(rows.view(np.uint8), axis=-1, count=code.n,
                       bitorder="little").astype(np.float64)
    info = (np.take_along_axis(l_perm, basis, axis=1) < 0).astype(np.uint8)
    c0 = _encode_rows(info, rf)
    s = (1.0 - 2.0 * c0) * l_perm
    m0 = s.sum(axis=1, keepdims=True)

    pats = _test_patterns(k, order)
    scores = [m0]
    if order >= 1:
        d = (rf @ s[:, :, None])[:, :, 0]
        scores.append(m0 - 2.0 * d)
    if order >= 2:
        gram = (rf * s[:, None, :]) @ rf.transpose(0, 2, 1)
        iu, ju = np.triu_indices(k, 1)
        scores.append(m0 - 2.0 * (d[:, iu] + d[:, ju] - 2.0 * gram[:, iu, ju]))
    high = pats[1 + k + k * (k - 1) // 2:]      # weight >= 3
    step = max(1, _BLOCK_ENTRIES // (len(llr) * code.n))
    for p in range(0, len(high), step):
        flips = (high[p:p + step].astype(np.float64) @ rf).astype(np.int64) & 1
        scores.append(m0 - 2.0 * (flips @ s[:, :, None])[:, :, 0])
    scores = np.concatenate(scores, axis=1)

    # the scores' rounding errors are many orders of magnitude below this
    # tolerance, so every pattern that ties the best in exact arithmetic
    # makes the shortlist
    tol = 1e-9 * np.abs(llr).sum(axis=1, keepdims=True)
    near = scores >= scores.max(axis=1, keepdims=True) - tol
    first = np.argmax(near, axis=1)
    cw = _unpermute(_encode_rows(info ^ pats[first], rf), ranking)
    metric = correlation_metric(cw, llr)
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        cands = _unpermute(_encode_rows(info[i] ^ pats[near[i]], rf[i]),
                           ranking[i])
        cw[i], metric[i] = _lex_best(cands, correlation_metric(cands, llr[i]))
    return cw, metric


def _encode_rows(info: np.ndarray, rf: np.ndarray) -> np.ndarray:
    """info @ R over GF(2): (B, k) with (B, k, n), or (P, k) with (k, n)."""
    prod = (info.astype(np.float64)[..., None, :] @ rf)[..., 0, :]
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def _unpermute(cw_perm: np.ndarray, ranking: np.ndarray) -> np.ndarray:
    """Codewords in transmission order from the reliability-permuted ones."""
    cw = np.empty_like(cw_perm)
    np.put_along_axis(cw, np.broadcast_to(ranking, cw.shape), cw_perm, axis=-1)
    return cw


def _reduce_on_ranking(g: np.ndarray, ranking: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan of G[:, ranking[b]] for every frame b in lock-step.

    Rows are packed into ceil(n/64) uint64 words.  Columns are scanned in
    reliability order; a frame pivots on the first row at or below its
    pivot count that has a 1, and skips dependent columns, so its k pivot
    columns form the most reliable basis.  Returns the reduced rows, packed
    (B, k, words), in the permuted domain, row i having its pivot at column
    basis[b, i], and the pivot columns (B, k).
    """
    k, n = g.shape
    nb = len(ranking)
    words = -(-n // 64)
    gt = np.ascontiguousarray(g.T)
    packed = np.zeros((nb, k, 8 * words), dtype=np.uint8)
    for s in range(0, nb, _SLICE_FRAMES):
        # packbits is several times faster on contiguous rows
        part = np.ascontiguousarray(
            gt[ranking[s:s + _SLICE_FRAMES]].transpose(0, 2, 1))
        packed[s:s + _SLICE_FRAMES, :, :-(-n // 8)] = np.packbits(
            part, axis=-1, bitorder="little")
    rows = packed.view("<u8")      # bit j of a row is bit j % 64 of word j // 64
    pivots = np.zeros(nb, dtype=np.intp)
    basis = np.zeros((nb, k), dtype=np.intp)
    row_ids = np.arange(k)
    for col in range(n):
        if pivots.min() == k:
            break
        w, b = divmod(col, 64)
        hit = ((rows[:, :, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)
        hit &= row_ids >= pivots[:, None]
        f = np.flatnonzero(hit.any(axis=1))
        p, r0 = hit[f].argmax(axis=1), pivots[f]
        piv = rows[f, p]
        rows[f, p] = rows[f, r0]
        rows[f, r0] = piv
        # every other row with a 1 in this column, pivot rows included
        clear = ((rows[f, :, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)
        clear[np.arange(len(f)), r0] = False
        rows[f] ^= np.where(clear[:, :, None], piv[:, None, :], np.uint64(0))
        basis[f, r0] = col
        pivots[f] += 1
    return rows, basis


@functools.cache
def _test_patterns(k: int, order: int) -> np.ndarray:
    """All binary k-vectors of weight <= order, weight-major; cached."""
    if not 0 <= order <= k:
        raise ValueError(f"OSD order {order} is not in [0, {k}]")
    rows, cols = [], []
    count = 1
    for w in range(1, order + 1):
        for combo in combinations(range(k), w):
            rows.extend([count] * w)
            cols.extend(combo)
            count += 1
    pats = np.zeros((count, k), dtype=np.uint8)
    pats[rows, cols] = 1
    pats.setflags(write=False)
    return pats


@dataclass
class ErrorCounter:
    """Error tallies of one chunk or of a whole point; merge by field
    addition.  The ML-bound fields are filled by OSD only."""

    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    ml_bit_errors: int = 0
    ml_frame_errors: int = 0

    def merge(self, other: "ErrorCounter") -> "ErrorCounter":
        self.frames += other.frames
        self.bit_errors += other.bit_errors
        self.frame_errors += other.frame_errors
        self.ml_bit_errors += other.ml_bit_errors
        self.ml_frame_errors += other.ml_frame_errors
        return self


def ml_bound_update(code: LinearCode, c: np.ndarray, cw: np.ndarray,
                    metric: np.ndarray, llr: np.ndarray) -> ErrorCounter:
    """Tally of a (B, n) batch decoded to codewords cw with metrics metric,
    against the transmitted codewords c: decoder errors always; ML-bound
    errors only where cw both differs from c and strictly outscores it (an
    ML decoder would have failed too)."""
    llr = _frames(code, llr)
    wrong = np.any(cw != c, axis=1)
    # A is linear: A c ^ A cw = A (c ^ cw)
    nbit = np.count_nonzero(code.p_inv_apply(c[wrong] ^ cw[wrong]), axis=1)
    ml = metric[wrong] > correlation_metric(c[wrong], llr[wrong])
    return ErrorCounter(
        frames=len(llr),
        bit_errors=int(nbit.sum()),
        frame_errors=int(np.count_nonzero(wrong)),
        ml_bit_errors=int(nbit[ml].sum()),
        ml_frame_errors=int(np.count_nonzero(ml)),
    )
