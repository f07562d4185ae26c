"""Reference decoders on (B, n) batches of frames: exhaustive correlation
MAP, ordered statistics decoding over the most reliable basis, and the
maximum-likelihood bound tally.

All candidate comparisons use the correlation metric sum_i (1 - 2 c_i) l_i,
which is the ML statistic for symmetric memoryless LLR channels; ties break
toward the lexicographically smallest codeword so exhaustive cross-checks
are exact.  Both decoders return (B, n) codewords and (B,) metrics.

OSD holds each generator column as one k-bit integer (64-bit words past
k = 64), eliminates all frames in lock-step by XORs of column words without
row swaps, and scores flip patterns in float32, weights 1 and 2 from one
Gram matrix per frame.  The float32 scores only shortlist: every pattern
within a proven bound on their rounding error of the best is re-encoded by
popcount parities and rescored exactly in float64, so codewords and metrics
are those of an all-float64 decoder.

A frame scores only the flip weights that can still win.  With c0 the
order-0 codeword, D = sum_{c0 != hard} |l| its discrepancy and
a(1) <= a(2) <= ... the reliabilities of the basis positions, a weight-w
pattern flips w basis positions against the hard decisions and so scores at
most M0 - 2 (a(1) + ... + a(w) - D), where M0 is c0's metric (Fossorier &
Lin, "Soft-decision decoding of linear block codes based on ordered
statistics", IEEE Trans. IT 41(5), 1995).  Each frame runs to the largest
weight w <= order with D >= a(1) + ... + a(w) - tolerance, and a frame left
at weight 0 keeps c0; no pattern that could win or tie is dropped.

The frames at each effective weight are scored together, in groups of at
most _GROUP_BYTES of float32 scores: m0, the shortlist, its argmax, the
re-encode, the float64 rescoring and the tie test each run once per group,
and only R^T, its s-weighted copy and the Gram matrices are formed in
sub-slices of _SLICE_BYTES.  Every numpy call releases the interpreter lock
and takes it back, so fewer, longer calls let two threads decode two blocks
at once: on a 2-vCPU Xeon VM (one BLAS thread), two 1024-frame polar_64_32
order-2 blocks ran at 107-118k frames/s on two threads against 77k one after
the other, where 64-frame scoring slices gave 85-94k and 69-75k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
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
    top = codewords[metrics == best]
    return top[np.lexsort(top.T[::-1])[0]], float(best)


# codewords that exhaustive MAP scores per product: a (B, n) x (n, width)
# product, so a slice's scores take 8 B width bytes
_MAP_SLICE = 1 << 10


def _map_slices(llr: np.ndarray, cws: np.ndarray):
    """(first index, (B, width) metrics) of each _MAP_SLICE-codeword slice
    of the codebook cws."""
    for s in range(0, len(cws), _MAP_SLICE):
        yield s, llr @ (1.0 - 2.0 * cws[s:s + _MAP_SLICE]).T


def map_decode(code: LinearCode, llr: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive MAP: score all 2^k codewords of every frame, one slice of
    the codebook at a time, and return each frame's best codeword and
    metric.  The codewords are scored in lexicographic order, so a slice's
    first maximum, kept across slices unless a later one is strictly
    greater, is the lexicographically smallest of the best."""
    if code.k > 20:
        raise ValueError(f"k = {code.k} too large for exhaustive decoding")
    llr = _frames(code, llr)
    cws = code.codebook()
    rows = np.arange(len(llr))
    metric = np.full(len(llr), -np.inf)
    first = np.zeros(len(llr), dtype=np.intp)
    for s, part in _map_slices(llr, cws):
        best = np.argmax(part, axis=1)
        top = part[rows, best]
        won = top > metric
        first = np.where(won, s + best, first)
        metric = np.where(won, top, metric)
    return cws[first], metric


def osd_decode(code: LinearCode, llr: np.ndarray, order: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Ordered statistics decoding of a (B, n) batch.

    Sorts positions by decreasing reliability, Gauss-eliminates the generator
    onto the first k independent positions in that ranking (the most reliable
    basis), hard-decides the basis, and keeps the correlation maximizer among
    the re-encodings of every flip pattern of weight <= order on it.  Each
    frame scores only the weights that _effective_orders leaves it: a frame
    left at weight 0 keeps the order-0 codeword c0.  The frames at each
    weight are scored and re-encoded as one group, of at most _GROUP_BYTES
    of float32 scores.
    """
    llr = _frames(code, llr)
    _test_patterns(code.k, order)           # refuses a bad order up front
    mag = np.abs(llr)
    cols, info, basis = _reduce_on_ranking(code.g, _ranking(mag), llr < 0)
    cw = _encode(cols, info)
    metric = correlation_metric(cw, llr)
    tol = _score_tolerance(mag)
    weights = _effective_orders(mag, tol, metric, basis, order)
    del mag, basis                          # not held beside the groups
    for w in range(1, order + 1):
        pats = _test_patterns(code.k, w)    # a prefix of order's table
        frames = np.flatnonzero(weights == w)
        size = max(1, _GROUP_BYTES // (4 * len(pats)))
        for s in range(0, len(frames), size):
            group = frames[s:s + size]
            part = llr[group], cols[group]
            # one expression, so that no group's scores outlive it
            cw[group], metric[group] = _osd_best(
                *part, info[group], pats, tol[group],
                _osd_scores(code, *part, cw[group], w))
    return cw, metric


def _ranking(mag: np.ndarray) -> np.ndarray:
    """(B, n) positions by decreasing reliability mag, ties in position
    order: argsort(-mag, kind="stable"), by the faster default sort.

    A row whose sorted reliabilities are all distinct has one such order,
    which any sort finds; only the rows with an exact tie (or a NaN) are
    sorted again, stably."""
    key = -mag
    ranking = np.argsort(key, axis=1)
    ranked = np.sort(key, axis=1)       # key[ranking], without the gather
    tied = np.flatnonzero(~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1))
    if len(tied):
        ranking[tied] = np.argsort(key[tied], axis=1, kind="stable")
    return ranking


def _effective_orders(mag: np.ndarray, tol: np.ndarray, metric0: np.ndarray,
                      basis: np.ndarray, order: int) -> np.ndarray:
    """(B,) the largest weight w <= order whose flips may still win or tie
    against c0, whose metric is metric0: the largest w with
    D >= a(1) + ... + a(w) - tol, where D = sum_{c0 != hard} |l|
    = (sum |l| - metric0) / 2, a(1) <= a(2) <= ... are the reliabilities
    mag of the basis positions and tol (B, 1) is _score_tolerance (see
    _TOL_GAMMAS)."""
    reach = (mag.sum(axis=1) - metric0) / 2.0 + tol[:, 0]
    # basis is most reliable first: its last `order` columns, least first
    least = np.take_along_axis(mag, basis[:, ::-1][:, :order], axis=1)
    return np.count_nonzero(np.cumsum(least, axis=1) <= reach[:, None],
                            axis=1)


# frames whose scores osd_decode forms and shortlists together, at most
# this many bytes of float32 scores: few numpy calls per block, so two
# threads' blocks rarely wait on each other for the interpreter lock
_GROUP_BYTES = 1 << 20

# frames of a group whose R^T (float32, n k per frame) _osd_scores unpacks
# at a time: with its s-weighted copy and its Gram matrices, a sub-slice's
# working set stays near 1.5 MB (64 frames of polar_64_32, order 2), which
# malloc reuses
_SLICE_BYTES = 1 << 19

# weight-3+ patterns are re-encoded explicitly, in blocks of about this many
# codeword bits over the sub-slice
_BLOCK_ENTRIES = 1 << 20


def _osd_scores(code: LinearCode, llr: np.ndarray, cols: np.ndarray,
                c0: np.ndarray, order: int) -> np.ndarray:
    """float32 scores of every flip pattern (B, patterns) of a group, from
    _reduce_on_ranking's columns and the order-0 codewords c0 (B, n).

    With R the reduced generator and c0 the re-encoded hard basis, both in
    transmission order, the flip pattern e scores
    M0 - 2 sum_{j in supp(e R)} s_j with s = (1 - 2 c0) * l.  Weight 1 reads
    that off d = R s, weight 2 off the Gram matrix R diag(s) R^T, whose
    diagonal is d because R is 0/1.  All of it runs in float32; _osd_best's
    tolerance bounds the rounding.  Only R^T, its s-weighted copy and the
    Gram matrices are formed _SLICE_BYTES at a time; each frame's scores are
    the same in any group or sub-slice.
    """
    (nb, n), k = llr.shape, code.k
    s = llr.astype(np.float32) * (1 - 2 * c0.view(np.int8))
    m0 = s.sum(axis=1, keepdims=True)
    pats = _test_patterns(k, order)
    scores = np.empty((nb, len(pats)), dtype=np.float32)
    scores[:, :1] = m0
    light = 1 + k + k * (k - 1) // 2        # the patterns of weight <= 2
    step = max(1, _SLICE_BYTES // (4 * n * k))
    for a in range(0, nb, step):
        sl = slice(a, a + step)
        rt = _unpack(cols[sl], k).astype(np.float32)        # R^T, (b, n, k)
        out = scores[sl]
        if order == 1:
            d = (s[sl, None, :] @ rt)[:, 0, :]
            np.subtract(m0[sl], 2.0 * d, out=out[:, 1:])
        elif order >= 2:
            gram = (rt * s[sl, :, None]).transpose(0, 2, 1) @ rt
            # copied: the diagonal is a view of gram, overwritten below
            d = np.diagonal(gram, axis1=1, axis2=2).copy()
            np.subtract(m0[sl], 2.0 * d, out=out[:, 1:1 + k])
            # d_i + d_j - 2 G_ij in place, then the pairs i < j in one gather
            gram *= -2.0
            gram += d[:, :, None]
            gram += d[:, None, :]
            pair = np.take(gram.reshape(len(rt), -1), _pair_index(k), axis=1)
            np.subtract(m0[sl], 2.0 * pair, out=out[:, 1 + k:light])
        block = max(1, _BLOCK_ENTRIES // (len(rt) * n))
        for p in range(light, len(pats), block):
            # sums of at most k ones: exact in float32, and so is their parity
            e = _unpack(pats[p:p + block], k).T.astype(np.float32)
            flips = (rt @ e).astype(np.int32)
            flips &= 1
            flips = flips.astype(np.float32)
            np.subtract(m0[sl], 2.0 * (s[sl, None, :] @ flips)[:, 0, :],
                        out=out[:, p:p + block])
    return scores


# The shortlist tolerance of _osd_best, as a multiple of gamma_n L, where
# L = sum_i |l_i|, u = 2^-24 is float32's unit roundoff and
# gamma_n = n u / (1 - n u) >= u bounds the relative error of a float32 sum
# of n terms taken in any order, with or without FMA (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 2002, sec. 3.1).  Against its
# exact value M0 - 2 P, with P the sum of the float64 s over supp(e R), a
# weight-2 score m0 - 2 (d_i + d_j - 2 G_ij) of _osd_scores errs by at most
#   u L          the float32 cast of s: any signed sum of s moves <= u L
#   gamma_n L    m0, a sum of n terms whose magnitudes sum to L
#   4 gamma_n L  d_i and d_j, sums of <= n such terms, doubled by "- 2 P"
#   4 gamma_n L  G_ij, a sum of <= n such terms, twice in P, doubled
#   4 u L        the two roundings inside P, of partial sums <= L, doubled
#   u L          the rounding of m0 - 2 P, <= L (the factor 2 is exact)
# which is 9 gamma_n + 6 u <= 15 gamma_n.  Weight 1 and weights >= 3 (one
# sum of <= n terms, doubled) err by at most 3 gamma_n + 2 u.  One more
# gamma_n covers the second-order terms and the float64 rescoring
# (n 2^-53 L) while n u <= 1/100.  The best float32 score and the exact
# winner's may each be off by that much, in opposite directions, so the
# tolerance counts it twice.
#
# The same tolerance T makes _effective_orders exact.  Let h be the hard
# decisions, c0 the order-0 codeword, M0 = L - 2 D its metric with
# D = sum_{c0 != h} |l|, and a(1) <= a(2) <= ... the |l| of the basis
# positions.  c0 agrees with h on the basis, so a pattern flipping the set
# S of w basis positions gives a codeword c that disagrees with h on all of
# S; its metric is L - 2 sum_{c != h} |l| <= L - 2 sum_S a
# <= M0 - 2 (a(1) + ... + a(w) - D).  The partial sums are nondecreasing in
# w, so if D < a(1) + ... + a(w) - T, every pattern of weight w or more
# scores below M0 - 2 T, up to float64 rounding of D and of the sums (a few
# n 2^-53 L, far below T).  Its float32 score is then below c0's by more
# than T, so it is never the best float32 score nor, since c0 beats it,
# the float64 winner or a tie; without it the shortlist still holds every
# winner and tie, and _osd_best returns the same codeword and metric.
_TOL_GAMMAS = 2 * 16


def _score_tolerance(llr: np.ndarray) -> np.ndarray:
    """(B, 1) shortlist tolerance _TOL_GAMMAS gamma_n sum_i |l_i| of a
    batch, or of its magnitudes |l|: no pattern that exactly ties or beats
    all others has a float32 score further than this below the frame's best
    one."""
    nu = llr.shape[1] * 2.0 ** -24
    return _TOL_GAMMAS * nu / (1.0 - nu) * np.abs(llr).sum(axis=1,
                                                        keepdims=True)


def _shortlist(tol: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(B, patterns) mask of the patterns within tol (B, 1), the frames'
    _score_tolerance, of each frame's best float32 score; it holds every
    exact winner."""
    best = scores.max(axis=1, keepdims=True).astype(np.float64)
    return scores >= best - tol


def _osd_best(llr: np.ndarray, cols: np.ndarray, info: np.ndarray,
              pats: np.ndarray, tol: np.ndarray, scores: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Best codewords (B, n) and metrics (B,) of a group from _osd_scores.

    The float32 scores only shortlist (_shortlist): every pattern within
    tol, the frames' _score_tolerance, a proven bound on their rounding
    error that every exact winner and tie makes, is re-encoded and rescored
    exactly in float64, ties going to _lex_best."""
    near = _shortlist(tol, scores)
    cw = _encode(cols, info ^ pats[np.argmax(near, axis=1)])
    metric = correlation_metric(cw, llr)
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        cands = _encode(cols[i], info[i] ^ pats[near[i]])
        cw[i], metric[i] = _lex_best(cands, correlation_metric(cands, llr[i]))
    return cw, metric


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., k) bits as (..., words) little-endian unsigned words of the
    fewest w >= min(k, 64) bits, bit i in bit i % w of word i // w."""
    k = bits.shape[-1]
    w = min(b for b in (8, 16, 32, 64) if b >= min(k, 64))
    padded = np.zeros(bits.shape[:-1] + (w * -(-k // w),), dtype=np.uint8)
    padded[..., :k] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view(f"<u{w // 8}")


def _unpack(words: np.ndarray, k: int) -> np.ndarray:
    """The first k bits (..., k) of _pack's contiguous words (..., words)."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=k,
                         bitorder="little")


def _encode(cols: np.ndarray, words: np.ndarray) -> np.ndarray:
    """words @ R over GF(2), (..., n) bits: the parity of each column word
    of R (..., n, words) masked by words (..., words); the two broadcast."""
    masked = np.bitwise_xor.reduce(cols & words[..., None, :], axis=-1)
    return np.bitwise_count(masked) & 1


def _reduce_on_ranking(g: np.ndarray, ranking: np.ndarray, hard: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan of G[:, ranking[b]] for every frame b in lock-step.

    Columns are words of _pack, row i in bit i; rows are never swapped.  At
    each column in reliability order a frame pivots on the lowest free (not
    yet pivot) row with a 1 there and XORs the column's other bits into
    every column with a 1 in that row, itself included, or skips the column
    as dependent, so its k pivots form the most reliable basis.  Returns the
    reduced columns (B, n, words) in transmission order, a row permutation
    of the unique reduced echelon form, the info words (B, words) whose
    bit i is the hard decision hard (B, n) at row i's pivot, and the basis
    (B, k): each frame's pivot positions, most reliable first.
    """
    (k, n), nb = g.shape, len(ranking)
    table = _pack(g.T)                                        # (n, words)
    # (n, words, B): a column's words, and every tail of columns, contiguous
    cols = np.ascontiguousarray(table[ranking].transpose(1, 2, 0))
    scratch = np.empty_like(cols)
    # (n, words, B): the pivot bit each frame takes at each column, if any
    pivs = np.zeros_like(cols)
    free = np.repeat(_pack(np.ones(k, np.uint8))[:, None], nb, axis=1)
    for col in range(n):
        if not free.any():
            break
        cand = cols[col] & free
        # lowest set bit of each word
        piv = np.bitwise_and(cand, -cand, out=pivs[col])
        for w in range(1, len(piv)):        # only the first word's pivots
            piv[w] *= ~cand[:w].any(axis=0)
        free ^= piv
        # the column's other bits into every column with a 1 in the pivot row
        tail, buf = cols[col:], scratch[col:]
        hit = np.bitwise_and(tail, piv, out=buf).any(axis=1, keepdims=True)
        tail ^= np.multiply(hit, cols[col] ^ piv, out=buf)
    # frame b's column j goes to position ranking[b, j], in the scratch
    reduced = scratch.reshape(nb, n, -1)
    np.put_along_axis(reduced, ranking[:, :, None], cols.transpose(2, 0, 1), 1)
    # G has rank k, so every frame has k pivot columns
    basis = ranking[pivs.any(axis=1).T].reshape(nb, k)
    # info bit i: the hard decision at row i's pivot column
    pivs *= np.take_along_axis(hard, ranking, axis=1).T[:, None, :]
    info = np.bitwise_or.reduce(pivs, axis=0)
    return reduced, np.ascontiguousarray(info.T), basis


@functools.cache
def _pair_index(k: int) -> np.ndarray:
    """(pairs,): the flat index i k + j of each pair i < j of a (k, k)
    matrix, in weight-2 order."""
    iu, ju = np.triu_indices(k, 1)
    index = iu * k + ju
    index.setflags(write=False)
    return index


# the most test patterns an OSD table may hold: every order <= 4 at k = 64
_MAX_PATTERNS = 1 << 22


@functools.cache
def _test_patterns(k: int, order: int) -> np.ndarray:
    """All binary k-vectors of weight <= order, weight-major, as
    (patterns, words) words of _pack; cached."""
    if not 0 <= order <= k:
        raise ValueError(f"OSD order {order} is not in [0, {k}]")
    count = sum(math.comb(k, w) for w in range(order + 1))
    if count > _MAX_PATTERNS:
        raise ValueError(f"OSD order {order} at k = {k} has {count} test "
                         f"patterns, more than {_MAX_PATTERNS}")
    supports = [c for w in range(order + 1) for c in combinations(range(k), w)]
    pats = np.zeros((len(supports), k), dtype=np.uint8)
    for i, support in enumerate(supports):
        pats[i, list(support)] = 1
    words = _pack(pats)
    words.setflags(write=False)
    return words


@dataclass
class ErrorCounter:
    """Error tallies of one chunk or of a whole point; merge by field
    addition.  The ML-bound fields are filled by OSD only."""

    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    ml_bit_errors: int = 0
    ml_frame_errors: int = 0

    @classmethod
    def tally(cls, u_hat: np.ndarray, u: np.ndarray,
              ml: np.ndarray | None = None) -> "ErrorCounter":
        """Errors of (B, k) message estimates u_hat against u; the ML-bound
        fields count the errors of the frames where the (B,) mask ml is
        set."""
        nbit = np.count_nonzero(u_hat != u, axis=1)
        ctr = cls(frames=len(nbit), bit_errors=int(nbit.sum()),
                  frame_errors=int(np.count_nonzero(nbit)))
        if ml is not None:
            ctr.ml_bit_errors = int(nbit[ml].sum())
            ctr.ml_frame_errors = int(np.count_nonzero(nbit[ml]))
        return ctr

    def merge(self, other: "ErrorCounter") -> "ErrorCounter":
        for name in (f.name for f in fields(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


def ml_bound_update(code: LinearCode, c: np.ndarray, cw: np.ndarray,
                    metric: np.ndarray, llr: np.ndarray) -> ErrorCounter:
    """Tally of a (B, n) batch decoded to codewords cw with metrics metric,
    against the transmitted codewords c: decoder errors always; ML-bound
    errors only where cw both differs from c and strictly outscores it (an
    ML decoder would have failed too)."""
    llr = _frames(code, llr)
    wrong = np.flatnonzero(np.any(cw != c, axis=1))
    ml = np.zeros(len(llr), dtype=bool)
    ml[wrong] = metric[wrong] > correlation_metric(c[wrong], llr[wrong])
    # A is linear: A c ^ A cw = A (c ^ cw), the message error pattern
    err = code.p_inv_apply(c ^ cw)
    return ErrorCounter.tally(err, np.zeros_like(err), ml)
