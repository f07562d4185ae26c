"""Reference decoders: exhaustive correlation-MAP, ordered statistics
decoding over the most reliable basis, and maximum-likelihood bound
bookkeeping.

All candidate comparisons use the correlation metric sum_i (1 - 2 c_i) l_i,
which is the ML statistic for symmetric memoryless LLR channels; ties break
toward the lexicographically smallest codeword so exhaustive cross-checks
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf2code import LinearCode, gf2_matmul

__all__ = [
    "CandidateScore",
    "correlation_metric",
    "map_bruteforce",
    "osd_decode",
    "ErrorCounter",
    "ml_bound_update",
]


@dataclass(frozen=True)
class CandidateScore:
    codeword: np.ndarray
    metric: float


def correlation_metric(codewords: np.ndarray, llr: np.ndarray) -> np.ndarray:
    """sum_i (1 - 2 c_i) l_i for one codeword or a batch of them."""
    c = np.asarray(codewords, dtype=np.float64)
    return (1.0 - 2.0 * c) @ np.asarray(llr, dtype=np.float64)


def _lex_best(codewords: np.ndarray, metrics: np.ndarray) -> tuple[np.ndarray, float]:
    """Highest metric; on exact ties the lexicographically smallest codeword."""
    best = np.max(metrics)
    idx = np.nonzero(metrics == best)[0]
    if idx.size > 1:
        rows = codewords[idx]
        order = np.lexsort(rows.T[::-1])
        return rows[order[0]].copy(), float(best)
    return codewords[idx[0]].copy(), float(best)


def map_bruteforce(code: LinearCode, llr: np.ndarray) -> CandidateScore:
    """Enumerate all 2^k codewords and return the correlation maximizer."""
    if code.k > 20:
        raise ValueError(f"k = {code.k} too large for exhaustive decoding")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"llr length {llr.shape} != n = {code.n}")
    cws = code.codebook()
    cw, metric = _lex_best(cws, correlation_metric(cws, llr))
    return CandidateScore(codeword=cw, metric=metric)


def osd_decode(code: LinearCode, llr: np.ndarray, order: int) -> CandidateScore:
    """Ordered statistics decoding of one LLR frame.

    Sorts positions by decreasing reliability, Gauss-eliminates the generator
    onto the first k independent positions in that ranking (the most reliable
    basis), hard-decides the basis, re-encodes every flip pattern of weight
    <= order on it, and keeps the correlation maximizer.
    """
    if not 0 <= order <= code.k:
        raise ValueError(f"order must be in [0, {code.k}]")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"llr length {llr.shape} != n = {code.n}")
    n, k = code.n, code.k
    hard = (llr < 0).astype(np.uint8)
    reliab = np.abs(llr)

    ranking = np.argsort(-reliab, kind="stable")
    g = code.g[:, ranking].copy()

    # Gauss-Jordan scan in reliability order; dependent columns are skipped,
    # so the pivots form the most reliable basis
    basis: list[int] = []
    row = 0
    for col in range(n):
        hits = np.nonzero(g[row:, col])[0]
        if hits.size == 0:
            continue
        p = row + hits[0]
        if p != row:
            g[[row, p]] = g[[p, row]]
        mask = g[:, col].astype(bool)
        mask[row] = False
        g[mask] ^= g[row]
        basis.append(col)
        row += 1
        if row == k:
            break
    basis_arr = np.array(basis)

    base_info = hard[ranking][basis_arr]
    trials = _test_patterns(k, order) ^ base_info
    cand_perm = gf2_matmul(trials, g)
    candidates = np.empty_like(cand_perm)
    candidates[:, ranking] = cand_perm
    cw, metric = _lex_best(candidates, correlation_metric(candidates, llr))
    return CandidateScore(codeword=cw, metric=metric)


_PATTERNS: dict[tuple[int, int], np.ndarray] = {}


def _test_patterns(k: int, order: int) -> np.ndarray:
    """All binary k-vectors of weight <= order, weight-major; cached."""
    key = (k, order)
    if key not in _PATTERNS:
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
        _PATTERNS[key] = pats
    return _PATTERNS[key]


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


def ml_bound_update(
    counter: ErrorCounter,
    code: LinearCode,
    transmitted: np.ndarray,
    osd_out: CandidateScore,
    llr: np.ndarray,
) -> ErrorCounter:
    """Tally one frame: OSD errors always; ML-bound errors only when the OSD
    output both differs from the transmitted codeword and strictly outscores
    it (an ML decoder would have failed too)."""
    transmitted = np.asarray(transmitted, dtype=np.uint8)
    counter.frames += 1
    if np.array_equal(osd_out.codeword, transmitted):
        return counter
    u_true = code.p_inv_apply(transmitted)
    u_osd = code.p_inv_apply(osd_out.codeword)
    nbit = int(np.count_nonzero(u_true ^ u_osd))
    counter.frame_errors += 1
    counter.bit_errors += nbit
    if osd_out.metric > float(correlation_metric(transmitted, llr)):
        counter.ml_frame_errors += 1
        counter.ml_bit_errors += nbit
    return counter
