"""The bit-flip estimator architectures, in one table.

`ARCHS` maps each architecture name to its (config class, network class)
pair; checkpoints, training and `count-params` look names up there.  A
config carries its `arch` name and its exact and approximate weight counts,
and `build_estimator` builds the network any config describes.  Every
network takes the length r = 2n - k packed statistic and emits k logits
through a final linear layer.  The closed-form counts are the load-bearing
check that the constructions match the intended architectures: tests assert
that enumerating the allocated arrays reproduces them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import EncoderLayer
from .layers import Dense, GRULayer, LayerNorm, Param, _grad

__all__ = [
    "ARCHS",
    "RnnConfig",
    "TransformerConfig",
    "RnnEstimator",
    "TransformerEstimator",
    "build_estimator",
    "build_transformer_estimator",
]

# TransformerEstimator.predict runs as many frames at a time as keep one
# attention layer's (key, frames, heads, query) scores within this many
# bytes, so its memory is bounded in the batch and the passes over the
# scores stay in a core's cache.  On a 2-vCPU Xeon (4 MiB L2 per core) with
# one BLAS thread and the harness's allocator policy, a 1024-frame desk
# predict took a median 158, 144, 135 and 137 ms at r = 48 with budgets of
# 256 KiB, 512 KiB, 1 MiB and 2 MiB (10 rotating rounds), and 542, 389, 354
# and 347 ms at r = 96 (6 rounds).  2 MiB ran the sbnd-transformer
# benchmark faster in 5 of 6 pairs, but at 5.6 MB (11%) more peak RSS.
_SLICE_SCORE_BYTES = 1 << 20


@dataclass(frozen=True)
class _EstimatorConfig:
    """The fields every architecture has: the statistic's length r and the
    k outputs.  Each subclass names its `arch` in a class attribute, which
    is no field and so no checkpoint config key."""

    r: int
    k: int

    def __post_init__(self):
        if self.r < 1 or self.k < 1:
            raise ValueError("r and k must be positive")

    @classmethod
    def for_code(cls, n: int, k: int, **kw):
        return cls(r=2 * n - k, k=k, **kw)


@dataclass(frozen=True)
class RnnConfig(_EstimatorConfig):
    """Stacked-GRU estimator: depth layers of width alpha * r, the statistic
    re-presented at each of time_steps steps, linear head to k outputs."""

    arch = "rnn"

    alpha: int
    time_steps: int
    depth: int

    def __post_init__(self):
        super().__post_init__()
        for name in ("alpha", "time_steps", "depth"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def hidden(self) -> int:
        return self.alpha * self.r

    def weights(self) -> int:
        """Exact trainable weight count of the GRU estimator.

        3 (2 depth - 1) alpha^2 r^2 + 3 (r + depth + k/3) alpha r + k,
        evaluated in integer arithmetic (the k/3 term multiplies out against
        3 alpha r).
        """
        a, dl, r, k = self.alpha, self.depth, self.r, self.k
        return (3 * (2 * dl - 1) * a * a * r * r
                + 3 * a * r * (r + dl) + k * a * r + k)

    def approx_weights(self) -> int:
        a, dl, r = self.alpha, self.depth, self.r
        return 3 * ((2 * dl - 1) * a * a + a) * r * r


@dataclass(frozen=True)
class TransformerConfig(_EstimatorConfig):
    """Encoder-stack estimator: per-scalar embedding rows, encoders layers of
    pre-norm attention blocks, a final normalization, a shared token-to-scalar
    projection, and a linear head to k outputs."""

    arch = "transformer"

    embed_dim: int
    heads: int
    encoders: int

    def __post_init__(self):
        super().__post_init__()
        if self.encoders < 1:
            raise ValueError("encoders must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.embed_dim % self.heads != 0:
            raise ValueError("heads must divide embed_dim")

    def weights(self) -> int:
        """Exact trainable weight count of the encoder-stack estimator:
        12 N d^2 + (13 N + r + 3) d + (r + 1) k + 1."""
        d, nenc, r, k = self.embed_dim, self.encoders, self.r, self.k
        return 12 * nenc * d * d + (13 * nenc + r + 3) * d + (r + 1) * k + 1

    def approx_weights(self) -> int:
        d, nenc = self.embed_dim, self.encoders
        return 12 * nenc * d * d + 13 * nenc * d


class RnnEstimator:
    """depth stacked GRU layers; the final hidden state feeds a linear head."""

    def __init__(self, cfg: RnnConfig, rng: np.random.Generator,
                 dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        hh = cfg.hidden
        self.grus = [
            GRULayer(f"gru{i}", cfg.r if i == 0 else hh, hh, rng, dtype)
            for i in range(cfg.depth)
        ]
        self.head = Dense("head", hh, cfg.k, rng, dtype)

    def params(self) -> list[Param]:
        out: list[Param] = []
        for g in self.grus:
            out.extend(g.params())
        out.extend(self.head.params())
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        """Logits of a (B, r) batch; a training step passes the tape that
        its backward reads (see layers)."""
        seq = np.asarray(x, dtype=self.dtype)[None]
        seq = self.grus[0].forward(seq, tape, steps=self.cfg.time_steps)
        for g in self.grus[1:]:
            seq = g.forward(seq, tape)
        return self.head.forward(seq[-1], tape)

    def backward(self, dlogits: np.ndarray, tape: dict) -> None:
        dh = self.head.backward(dlogits, tape)
        dseq = np.zeros(
            (self.cfg.time_steps,) + dh.shape, dtype=dh.dtype)
        dseq[-1] = dh
        for g in reversed(self.grus[1:]):
            dseq = g.backward(dseq, tape)
        self.grus[0].backward(dseq, tape, input_grad=False)

    def predict(self, stats: np.ndarray) -> np.ndarray:
        return self.forward(stats)


class TransformerEstimator:
    """Embedding, pre-norm encoder stack, final norm, token projection, head."""

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator,
                 dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        d = cfg.embed_dim
        out_scale = 1.0 / np.sqrt(2.0 * cfg.encoders)
        self.embed = Param(
            "embed",
            (rng.uniform(-1, 1, size=(cfg.r, d)) / np.sqrt(d)).astype(dtype))
        self.encoders = [
            EncoderLayer(f"enc{i}", d, cfg.heads, rng, dtype, out_scale)
            for i in range(cfg.encoders)
        ]
        self.ln_final = LayerNorm("ln_final", d, dtype)
        self.token_proj = Dense("token_proj", d, 1, rng, dtype)
        self.head = Dense("head", cfg.r, cfg.k, rng, dtype)

    def params(self) -> list[Param]:
        out = [self.embed]
        for e in self.encoders:
            out.extend(e.params())
        out.extend(self.ln_final.params())
        out.extend(self.token_proj.params())
        out.extend(self.head.params())
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.params())

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        """Logits of a (B, r) batch; a training step passes the tape that
        its backward reads (see layers)."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        if tape is not None:
            tape[self] = x
        h = x[:, :, None] * self.embed.value[None, :, :]
        for e in self.encoders:
            h = e.forward(h, tape)
        h = self.ln_final.forward(h, tape)
        tokens = self.token_proj.forward(h, tape)[..., 0]
        return self.head.forward(tokens, tape)

    def backward(self, dlogits: np.ndarray, tape: dict) -> None:
        dtok = self.head.backward(dlogits, tape)
        dh = self.token_proj.backward(dtok[..., None], tape)
        dh = self.ln_final.backward(dh, tape)
        for e in reversed(self.encoders):
            dh = e.backward(dh, tape)
        g = _grad(tape, self.embed)
        g += np.einsum("bi,bid->id", tape[self], dh)

    def predict(self, stats: np.ndarray) -> np.ndarray:
        """forward over slices of the batch (see _SLICE_SCORE_BYTES)."""
        x = np.ascontiguousarray(stats, dtype=self.dtype)
        step = max(1, _SLICE_SCORE_BYTES
                   // (self.cfg.heads * self.cfg.r ** 2 * x.itemsize))
        out = np.empty((x.shape[0], self.cfg.k), dtype=self.dtype)
        for s in range(0, x.shape[0], step):
            out[s:s + step] = self.forward(x[s:s + step])
        return out


ARCHS = {"rnn": (RnnConfig, RnnEstimator),
         "transformer": (TransformerConfig, TransformerEstimator)}


def build_estimator(cfg, rng: np.random.Generator, dtype=np.float32):
    """The network cfg describes, its weights drawn from rng."""
    net = ARCHS[cfg.arch][1](cfg, rng, dtype)
    assert net.num_params() == cfg.weights()
    return net


# build_transformer_estimator stays importable: bench/workloads.py builds its
# network by this name
build_transformer_estimator = build_estimator
