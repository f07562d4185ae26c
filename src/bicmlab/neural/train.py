"""Adam, binary cross-entropy on logits, and the single train step."""

from __future__ import annotations

import numpy as np

from .layers import Param, sigmoid

__all__ = [
    "Adam",
    "bce_with_logits",
    "train_step",
    "TrainingDiverged",
]


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

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0

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


def bce_with_logits(logits: np.ndarray, targets: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over all elements, with its logit gradient.

    Stable form: max(z, 0) - z t + log(1 + exp(-|z|)).
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    loss = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    dz = (sigmoid(z) - t) / z.size
    return float(loss.mean()), dz.astype(logits.dtype)


def train_step(net, x: np.ndarray, targets: np.ndarray, opt: Adam) -> float:
    """One Adam update of BCE-with-logits on a batch; returns the loss."""
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    opt.zero_grad()
    tape: dict = {}
    logits = net.forward(x, tape)
    if not np.all(np.isfinite(logits)):
        raise TrainingDiverged("non-finite activation in forward pass")
    loss, dz = bce_with_logits(logits, targets)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")
    net.backward(dz, tape)
    for p in opt.params:
        if not np.all(np.isfinite(p.grad)):
            raise TrainingDiverged(f"non-finite gradient in {p.name}")
    opt.step()
    return loss
