"""Multi-head self-attention and the pre-norm encoder layer."""

from __future__ import annotations

import math

import numpy as np

from .layers import Dense, LayerNorm, Param

__all__ = ["MultiHeadSelfAttention", "EncoderLayer"]


class MultiHeadSelfAttention:
    """Standard scaled dot-product attention on (B, tokens, dim) inputs."""

    def __init__(self, name: str, dim: int, heads: int,
                 rng: np.random.Generator, dtype=np.float32,
                 out_scale: float = 1.0):
        if dim % heads != 0:
            raise ValueError(f"heads {heads} must divide embed dim {dim}")
        self.dim, self.heads = dim, heads
        self.dk = dim // heads
        self.q = Dense(f"{name}.q", dim, dim, rng, dtype)
        self.k = Dense(f"{name}.k", dim, dim, rng, dtype)
        self.v = Dense(f"{name}.v", dim, dim, rng, dtype)
        self.o = Dense(f"{name}.o", dim, dim, rng, dtype, init_scale=out_scale)

    def params(self) -> list[Param]:
        return self.q.params() + self.k.params() + self.v.params() + self.o.params()

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.dk).transpose(0, 2, 1, 3)

    def _join(self, x: np.ndarray) -> np.ndarray:
        b, h, t, dk = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        q = self._split(self.q.forward(x, tape))
        k = self._split(self.k.forward(x, tape))
        v = self._split(self.v.forward(x, tape))
        # the scale goes into q, on r x d_k values per head rather than the
        # r x r scores.  The scores are laid out (key, batch, head, query),
        # so the softmax's max and sum over keys reduce over the leading
        # axis, which numpy does far faster than along a short last axis;
        # attn is their (batch, head, query, key) view.  The r x d_k context
        # is normalised after attn @ v, not the scores before it; backward
        # reads normalised scores, so with a tape they are normalised in
        # place once ctx is formed.
        q *= 1.0 / math.sqrt(self.dk)
        b, h, t, _ = q.shape
        scores = np.empty((t, b, h, t), dtype=q.dtype)
        np.matmul(k, q.swapaxes(-1, -2), out=scores.transpose(1, 2, 0, 3))
        scores -= scores.max(axis=0)
        np.exp(scores, out=scores)
        tot = scores.sum(axis=0)
        attn = scores.transpose(1, 2, 3, 0)
        ctx = attn @ v
        ctx /= tot[..., None]
        if tape is not None:
            scores /= tot
            tape[self] = (q, k, v, attn)
        return self.o.forward(self._join(ctx), tape)

    def backward(self, dy: np.ndarray, tape: dict) -> np.ndarray:
        # q on the tape is already scaled by 1/sqrt(d_k)
        q, k, v, attn = tape[self]
        dctx = self._split(self.o.backward(dy, tape))
        dattn = dctx @ v.swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = dscores @ k
        dq /= math.sqrt(self.dk)
        dk_ = dscores.swapaxes(-1, -2) @ q
        dx = self.q.backward(self._join(dq), tape)
        dx = dx + self.k.backward(self._join(dk_), tape)
        dx = dx + self.v.backward(self._join(dv), tape)
        return dx


class EncoderLayer:
    """Pre-norm encoder block: x + MHA(LN(x)), then x + FFN(LN(x)).

    The feed-forward expansion is 4x with ReLU, giving the block
    12 d^2 + 13 d trainable parameters including both normalizations.
    """

    def __init__(self, name: str, dim: int, heads: int,
                 rng: np.random.Generator, dtype=np.float32,
                 out_scale: float = 1.0):
        self.ln1 = LayerNorm(f"{name}.ln1", dim, dtype)
        self.mha = MultiHeadSelfAttention(f"{name}.mha", dim, heads, rng,
                                          dtype, out_scale)
        self.ln2 = LayerNorm(f"{name}.ln2", dim, dtype)
        self.ff1 = Dense(f"{name}.ff1", dim, 4 * dim, rng, dtype)
        self.ff2 = Dense(f"{name}.ff2", 4 * dim, dim, rng, dtype,
                         init_scale=out_scale)

    def params(self) -> list[Param]:
        return (self.ln1.params() + self.mha.params() + self.ln2.params()
                + self.ff1.params() + self.ff2.params())

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        x = x + self.mha.forward(self.ln1.forward(x, tape), tape)
        act = self.ff1.forward(self.ln2.forward(x, tape), tape)
        np.maximum(act, 0, out=act)
        if tape is not None:
            tape[self] = act
        y = self.ff2.forward(act, tape)
        y += x
        return y

    def backward(self, dy: np.ndarray, tape: dict) -> np.ndarray:
        dpre = self.ff2.backward(dy, tape) * (tape[self] > 0)
        dx = dy + self.ln2.backward(self.ff1.backward(dpre, tape), tape)
        return dx + self.ln1.backward(self.mha.backward(dx, tape), tape)
