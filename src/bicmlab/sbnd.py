"""Syndrome-based decoding of whole frame batches: sufficient-statistic
extraction, the pluggable bit-flip estimator interface, thresholding, and
message reconstruction.

Every function takes a (B, n) batch of LLR frames.  ``hard_messages`` is
the hard-decision pseudo-inverse A l^b; ``statistic_batch`` splits a batch
into hard decisions l^b and reliabilities once and packs (|l|, H l^b) into
(B, 2n - k) estimator inputs, returning l^b beside them; ``decode_batch``
feeds the inputs to an estimator, thresholds its (B, k) logits at zero and
xors the resulting message-domain flip pattern with A l^b;
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
    "hard_messages",
    "statistic_batch",
    "decode_batch",
    "make_training_batch",
]


class Estimator(Protocol):
    """Bit-flip estimator: batch of packed statistics -> batch of k logits."""

    def predict(self, stats: np.ndarray) -> np.ndarray: ...


def hard_messages(code: LinearCode, llr: np.ndarray) -> np.ndarray:
    """A l^b: the (B, k) messages of the hard decisions of a (B, n) batch,
    l^b = 1(l < 0) as in hard_split, without its reliabilities."""
    return code.p_inv_apply((np.asarray(llr) < 0).astype(np.uint8))


def statistic_batch(code: LinearCode, llr: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(l^b, packed statistic vectors) of a (B, n) batch of LLR frames, from
    one hard_split of the batch: (B, n) hard decisions and (B, 2n-k) inputs.

    Reliabilities first, then the syndrome bits mapped to +-1 reals (0 -> +1,
    1 -> -1) so both halves live on comparable scales.
    """
    hard, reliab = hard_split(llr)
    syn = code.syndrome(hard).astype(np.float64)
    return hard, np.concatenate([reliab, 1.0 - 2.0 * syn], axis=-1)


def decode_batch(code: LinearCode, llr: np.ndarray, est: Estimator) -> np.ndarray:
    """Estimate the message-domain flips of a (B, n) LLR batch from
    (|l|, H l^b) and undo them; returns (B, k) messages."""
    hard, stats = statistic_batch(code, llr)
    scores = np.asarray(est.predict(stats))
    if scores.shape != (stats.shape[0], code.k):
        raise ValueError(f"estimator returned {scores.shape}, expected "
                         f"({stats.shape[0]}, {code.k})")
    return code.p_inv_apply(hard) ^ (scores > 0).astype(np.uint8)


def make_training_batch(batch: FrameBatch, code: LinearCode
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(B, r) inputs and (B, k) flip targets from a simulated frame batch."""
    hard, x = statistic_batch(code, batch.llr)
    return x, code.p_inv_apply(hard) ^ batch.u
