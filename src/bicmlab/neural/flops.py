"""Forward-pass flop counters for the encoder cost model.

The self-attention mechanism is the piece whose cost grows quadratically in
the token count r: score matrix, softmax, and the attention-weighted sum are
all Theta(r^2) with a d_e (or head-count) factor.  The per-layer counter adds
the token-wise linear parts, which grow only linearly in r.
"""

from __future__ import annotations

__all__ = ["attention_flops", "encoder_layer_flops"]


def attention_flops(r: int, embed_dim: int, heads: int) -> int:
    """Flops of one multi-head self-attention mechanism on r tokens:
    Q K^T scores, softmax, and the weighted sum over values."""
    scores = 2 * r * r * embed_dim
    softmax = 5 * heads * r * r
    weighted_sum = 2 * r * r * embed_dim
    return scores + softmax + weighted_sum


def encoder_layer_flops(r: int, embed_dim: int, heads: int) -> int:
    """Flops of one full encoder layer: attention mechanism plus the
    Q/K/V/O projections, the 4x feed-forward, and both normalizations."""
    projections = 4 * 2 * r * embed_dim * embed_dim
    ffn = 2 * 2 * r * 4 * embed_dim * embed_dim
    norms = 2 * 8 * r * embed_dim
    return attention_flops(r, embed_dim, heads) + projections + ffn + norms
