"""Adam, binary cross-entropy on logits, and the sharded train step."""

from __future__ import annotations

from concurrent.futures import Executor

import numpy as np

from ..units import run_in_order
from .layers import Param, sigmoid

__all__ = [
    "Adam",
    "bce_with_logits",
    "train_step",
    "TrainingDiverged",
    "TRAIN_SHARD_FRAMES",
]

# Frames per gradient shard of a train step.  The size is fixed, never
# derived from the thread count, and the shard grads are summed in shard
# order, so a step gives the same bits on any pool.  A batch of at most
# this many frames is one shard: the unsharded step.
TRAIN_SHARD_FRAMES = 256


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


class Adam:
    """Adam over a fixed parameter list (mu = 1e-3 unless overridden,
    beta1 = 0.9, beta2 = 0.999, eps = 1e-8)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Param], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        # in place, in the operation order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        #   value -= lr (m / b1c) / (sqrt(v / b2c) + eps)
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            g2 = g * g
            g2 *= 1 - self.beta2
            v *= self.beta2
            v += g2
            step = m / b1c
            step *= self.lr
            den = np.divide(v, b2c, out=g2)
            np.sqrt(den, out=den)
            den += self.eps
            step /= den
            p.value -= step


def bce_with_logits(logits: np.ndarray, targets: np.ndarray,
                    count: int | None = None) -> tuple[float, np.ndarray]:
    """Binary cross-entropy summed over all elements and divided by count
    (default: their number, so the mean), with its logit gradient.

    Stable form: max(z, 0) - z t + log(1 + exp(-|z|)).
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    count = z.size if count is None else count
    loss = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    dz = (sigmoid(z) - t) / count
    return float(loss.sum() / count), dz.astype(logits.dtype)


def train_step(net, x: np.ndarray, targets: np.ndarray, opt: Adam,
               pool: Executor | None = None,
               threads: int | None = None) -> float:
    """One Adam update of BCE-with-logits on a batch; returns the loss.

    The batch splits into TRAIN_SHARD_FRAMES-frame shards, the last one
    possibly shorter, and every shard runs on net, each with a tape of its
    own.  This thread runs the next shard to hand back, and the shards
    after it, fewer than `threads` past it (this thread and pool's; None
    queues them all), are queued on pool when one is given
    (units.run_in_order).  Shard 0's tape is seeded with net's zeroed
    grads; a later shard's accumulators are added into them as it is
    handed back, in shard order.  So at most threads + 1 shards'
    gradients are held besides net's.

    Each shard's logit gradient is divided by the whole batch's element
    count, so net ends with the batch-mean gradient, and the loss is the
    shard losses summed in shard order.
    """
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    params = net.params()
    for p in params:
        p.grad[...] = 0

    def shard(i: int) -> tuple[float, list]:
        """Forward, BCE over the batch's element count and backward of
        shard i: its share of the loss and, past shard 0, its gradients."""
        s = slice(i * TRAIN_SHARD_FRAMES, (i + 1) * TRAIN_SHARD_FRAMES)
        tape = {p: p.grad for p in params} if i == 0 else {}
        logits = net.forward(x[s], tape)
        if not np.all(np.isfinite(logits)):
            raise TrainingDiverged("non-finite activation in forward pass")
        loss, dz = bce_with_logits(logits, targets[s], targets.size)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss {loss}")
        net.backward(dz, tape)
        return loss, [] if i == 0 else [tape[p] for p in params]

    losses = []
    for loss, grads in run_in_order(-(-x.shape[0] // TRAIN_SHARD_FRAMES),
                                    shard, pool, threads):
        losses.append(loss)
        for p, g in zip(params, grads):
            p.grad += g
    for p in opt.params:
        if not np.all(np.isfinite(p.grad)):
            raise TrainingDiverged(f"non-finite gradient in {p.name}")
    opt.step()
    return sum(losses)
