"""Syndrome-based decoding of whole frame batches: sufficient-statistic
extraction, the pluggable bit-flip estimator interface, thresholding, and
message reconstruction.

Every function takes a (B, n) batch of LLR frames.  ``statistic_batch``
packs (|l|, H l^b) into (B, 2n - k) estimator inputs; ``decode_batch`` feeds
them to an estimator, thresholds its (B, k) logits at zero and xors the
resulting message-domain flip pattern with the hard-decision pseudo-inverse;
``make_training_batch`` pairs the inputs with their true flip targets.  The
decoder never sees the codeword, only the statistic.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .bicm import FrameBatch
from .gf2code import LinearCode
from .modem import hard_split

__all__ = [
    "Estimator",
    "statistic_batch",
    "decode_batch",
    "make_training_batch",
    "map_noise_equivalence",
]


class Estimator(Protocol):
    """Bit-flip estimator: batch of packed statistics -> batch of k logits."""

    def predict(self, stats: np.ndarray) -> np.ndarray: ...


def statistic_batch(code: LinearCode, llr: np.ndarray) -> np.ndarray:
    """Packed statistic vectors for a (B, n) batch of LLR frames: (B, 2n-k).

    Reliabilities first, then the syndrome bits mapped to +-1 reals (0 -> +1,
    1 -> -1) so both halves live on comparable scales.
    """
    llr = np.asarray(llr, dtype=np.float64)
    hard, reliab = hard_split(llr)
    syn = code.syndrome(hard).astype(np.float64)
    return np.concatenate([reliab, 1.0 - 2.0 * syn], axis=-1)


def decode_batch(code: LinearCode, llr: np.ndarray, est: Estimator) -> np.ndarray:
    """Estimate the message-domain flips of a (B, n) LLR batch from
    (|l|, H l^b) and undo them; returns (B, k) messages."""
    stats = statistic_batch(code, llr)
    scores = np.asarray(est.predict(stats))
    if scores.shape != (stats.shape[0], code.k):
        raise ValueError(f"estimator returned {scores.shape}, expected "
                         f"({stats.shape[0]}, {code.k})")
    flip_hat = (scores > 0).astype(np.uint8)
    hard, _ = hard_split(llr)
    return code.p_inv_apply(hard) ^ flip_hat


def make_training_batch(batch: FrameBatch, code: LinearCode
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(B, r) inputs and (B, k) flip targets from a simulated frame batch."""
    x = statistic_batch(code, batch.llr)
    t = code.p_inv_apply(batch.hard) ^ batch.u
    return x, t


def map_noise_equivalence(code: LinearCode, q: float, hard: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive message-side and noise-side MAP under a BSC(q) surrogate.

    Message side: argmax_u P(l^b | encode(u)), i.e. the codeword nearest to
    the hard decisions for q < 0.5.  Noise side: the flip pattern w maximizing
    P(W_u = w | l^b) over the syndrome coset, applied to p_inv(l^b).  Ties go
    to the lexicographically smallest candidate on each side.  Returns both
    message estimates so callers can assert they coincide.
    """
    if code.k > 16:
        raise ValueError("exhaustive equivalence limited to k <= 16")
    if not 0 < q < 0.5:
        raise ValueError("q must be in (0, 0.5)")
    hard = np.asarray(hard, dtype=np.uint8)
    msgs = code.messages()
    cws = code.codebook()

    # message side: minimize Hamming distance, lexicographically first winner
    dists = np.count_nonzero(cws ^ hard, axis=1)
    u_message = msgs[int(np.argmin(dists))]

    # noise side: walk the coset l^b xor C; each member maps to a distinct
    # candidate w = A (l^b xor c), with likelihood q^|w^b| (1-q)^(n-|w^b|)
    coset = hard ^ cws
    weights = np.count_nonzero(coset, axis=1)
    w_candidates = code.p_inv_apply(coset)
    best = None
    for i in range(coset.shape[0]):
        key = (weights[i], tuple(w_candidates[i].tolist()))
        if best is None or key < best[0]:
            best = (key, i)
    w_star = w_candidates[best[1]]
    u_noise = code.p_inv_apply(hard) ^ w_star
    return u_message, u_noise
