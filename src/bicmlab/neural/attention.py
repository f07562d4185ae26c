"""Multi-head self-attention and the pre-norm encoder layer."""

from __future__ import annotations

import math

import numpy as np

from .layers import Dense, LayerNorm, Param

__all__ = ["MultiHeadSelfAttention", "EncoderLayer"]


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
        self._cache = None

    def params(self) -> list[Param]:
        return self.q.params() + self.k.params() + self.v.params() + self.o.params()

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.dk).transpose(0, 2, 1, 3)

    def _join(self, x: np.ndarray) -> np.ndarray:
        b, h, t, dk = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split(self.q.forward(x))
        k = self._split(self.k.forward(x))
        v = self._split(self.v.forward(x))
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(self.dk)
        attn = _softmax(scores)
        ctx = self._join(attn @ v)
        self._cache = (q, k, v, attn)
        return self.o.forward(ctx)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        q, k, v, attn = self._cache
        dctx = self._split(self.o.backward(dy))
        dattn = dctx @ v.swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ dctx
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= math.sqrt(self.dk)
        dq = dscores @ k
        dk_ = dscores.swapaxes(-1, -2) @ q
        dx = self.q.backward(self._join(dq))
        dx = dx + self.k.backward(self._join(dk_))
        dx = dx + self.v.backward(self._join(dv))
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
        self._relu_mask = None

    def params(self) -> list[Param]:
        return (self.ln1.params() + self.mha.params() + self.ln2.params()
                + self.ff1.params() + self.ff2.params())

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.mha.forward(self.ln1.forward(x))
        pre = self.ff1.forward(self.ln2.forward(x))
        self._relu_mask = pre > 0
        return x + self.ff2.forward(pre * self._relu_mask)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dpre = self.ff2.backward(dy) * self._relu_mask
        dx = dy + self.ln2.backward(self.ff1.backward(dpre))
        return dx + self.ln1.backward(self.mha.backward(dx))
