"""Differentiable layers with explicit forward/backward passes.

A layer keeps no state between calls.  ``forward(x, tape)`` records what
the backward pass needs in ``tape``, a dict the caller owns, under the
layer itself as key; ``backward(dy, tape)`` reads it back, adds each
parameter's gradient into the tape's accumulator for that Param (see
_grad), and returns the gradient with respect to the input.  Without a
tape, forward records nothing, so inference holds no activation past its
use, and one network serves concurrent callers: inference and training
shards alike.
Everything is plain numpy; dtype is chosen at construction (float32 for
training, float64 for finite-difference gradient checks).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Param", "Dense", "LayerNorm", "GRULayer", "sigmoid"]


class Param:
    """Named trainable array and the gradient that an optimizer step reads."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    @property
    def size(self) -> int:
        return self.value.size


def _grad(tape: dict, p: Param) -> np.ndarray:
    """p's gradient accumulator on tape, a zero array until the first add.
    A caller that wants the gradient in p.grad seeds the tape with it."""
    g = tape.get(p)
    if g is None:
        g = tape[p] = np.zeros_like(p.value)
    return g


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype,
             scale: float = 1.0) -> np.ndarray:
    bound = scale / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Dense:
    """y = x @ W + b on the last axis; x may have any leading shape."""

    def __init__(self, name: str, n_in: int, n_out: int,
                 rng: np.random.Generator, dtype=np.float32,
                 init_scale: float = 1.0):
        self.w = Param(f"{name}.w",
                       _uniform(rng, (n_in, n_out), n_in, dtype, init_scale))
        self.b = Param(f"{name}.b", np.zeros(n_out, dtype=dtype))

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if tape is not None:
            tape[self] = x
        y = x @ self.w.value
        y += self.b.value
        return y

    def backward(self, dy: np.ndarray, tape: dict) -> np.ndarray:
        x = tape[self]
        x2 = x.reshape(-1, x.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        gw, gb = _grad(tape, self.w), _grad(tape, self.b)
        gw += x2.T @ dy2
        gb += dy2.sum(axis=0)
        return dy @ self.w.value.T


class LayerNorm:
    """Normalization over the last axis with learned scale and shift."""

    eps = 1e-5

    def __init__(self, name: str, dim: int, dtype=np.float32):
        self.gamma = Param(f"{name}.gamma", np.ones(dim, dtype=dtype))
        self.beta = Param(f"{name}.beta", np.zeros(dim, dtype=dtype))

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        # means over the short last axis as products with a (d, 1) column
        # of 1/d: BLAS beats numpy's reduction there several times over
        mean = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], dtype=x.dtype)
        xhat = x - x @ mean
        inv = 1.0 / np.sqrt(np.square(xhat) @ mean + self.eps)
        xhat *= inv
        if tape is not None:
            tape[self] = (xhat, inv)
        y = xhat * self.gamma.value
        y += self.beta.value
        return y

    def backward(self, dy: np.ndarray, tape: dict) -> np.ndarray:
        xhat, inv = tape[self]
        d = xhat.shape[-1]
        flat = (-1, d)
        ggamma, gbeta = _grad(tape, self.gamma), _grad(tape, self.beta)
        ggamma += (dy * xhat).reshape(flat).sum(axis=0)
        gbeta += dy.reshape(flat).sum(axis=0)
        dxhat = dy * self.gamma.value
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_x = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (dxhat - mean_dxhat - xhat * mean_dxhat_x)


class GRULayer:
    """Gated recurrent layer over a (T, B, n_in) sequence, h0 = 0.

    Gate equations (single bias per gate, so the parameter count is
    3 (n_out^2 + n_in n_out + n_out)):

        z_t = sigma(x_t Wx_z + h_{t-1} Wh_z + b_z)
        r_t = sigma(x_t Wx_r + h_{t-1} Wh_r + b_r)
        c_t = tanh (x_t Wx_c + (r_t . h_{t-1}) Wh_c + b_c)
        h_t = z_t . h_{t-1} + (1 - z_t) . c_t
    """

    def __init__(self, name: str, n_in: int, n_out: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.n_in, self.n_out = n_in, n_out
        self.wx = Param(f"{name}.wx",
                        _uniform(rng, (n_in, 3 * n_out), n_in, dtype))
        self.wh = Param(f"{name}.wh",
                        _uniform(rng, (n_out, 3 * n_out), n_out, dtype))
        self.b = Param(f"{name}.b", np.zeros(3 * n_out, dtype=dtype))

    def params(self) -> list[Param]:
        return [self.wx, self.wh, self.b]

    def forward(self, xs: np.ndarray, tape: dict | None = None,
                steps: int | None = None) -> np.ndarray:
        """(T, B, n_out) states of a (T, B, n_in) input, or of a (1, B, n_in)
        input fed at each of `steps` steps.  The input projection of all
        steps is one product ahead of the recurrence."""
        steps = steps or xs.shape[0]
        batch, hh = xs.shape[1], self.n_out
        ax = xs @ self.wx.value
        ax += self.b.value
        ax = np.broadcast_to(ax, (steps,) + ax.shape[1:])
        outs = np.empty((steps, batch, hh), dtype=xs.dtype)
        cache: list = []
        if tape is not None:
            tape[self] = (xs, cache)
        wh = self.wh.value
        # h0 = 0: the first step's recurrent products are zero and r has no
        # effect, so it is computed from ax alone
        z = sigmoid(ax[0, :, :hh])
        c = np.tanh(ax[0, :, 2 * hh:])
        # each state is written straight into its row of outs, and the
        # tape records that row as the next step's previous state
        h = np.multiply(1.0 - z, c, out=outs[0])
        if tape is not None:
            cache.append((None, z, None, None, c))
        for t in range(1, steps):
            z = sigmoid(ax[t, :, :hh] + h @ wh[:, :hh])
            r = sigmoid(ax[t, :, hh:2 * hh] + h @ wh[:, hh:2 * hh])
            rh = r * h
            c = np.tanh(ax[t, :, 2 * hh:] + rh @ wh[:, 2 * hh:])
            if tape is not None:
                cache.append((h, z, r, rh, c))
            h = np.add(z * h, (1.0 - z) * c, out=outs[t])
        return outs

    def backward(self, douts: np.ndarray, tape: dict,
                 input_grad: bool = True) -> np.ndarray | None:
        """Gradient for the forward input: (T, B, n_in), or (1, B, n_in)
        summed over the steps for an input fed at each step; None when
        input_grad is false, for a layer whose input needs no gradient."""
        hh = self.n_out
        wh = self.wh.value
        xs, cache = tape[self]
        gwh = _grad(tape, self.wh)
        das = np.empty(douts.shape[:2] + (3 * hh,), dtype=douts.dtype)
        dh = np.zeros_like(douts[0])
        for t in range(len(cache) - 1, 0, -1):
            h_prev, z, r, rh, c = cache[t]
            dh_tot = douts[t] + dh
            dz = dh_tot * (h_prev - c)
            dc = dh_tot * (1.0 - z)
            dh_prev = dh_tot * z
            dac = dc * (1.0 - c * c)
            gwh[:, 2 * hh:] += rh.T @ dac
            drh = dac @ wh[:, 2 * hh:].T
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r
            daz = dz * z * (1.0 - z)
            dar = dr * r * (1.0 - r)
            gwh[:, :hh] += h_prev.T @ daz
            gwh[:, hh:2 * hh] += h_prev.T @ dar
            dh_prev = dh_prev + daz @ wh[:, :hh].T + dar @ wh[:, hh:2 * hh].T
            np.concatenate([daz, dar, dac], axis=1, out=das[t])
            dh = dh_prev
        # from h0 = 0: the step adds nothing to the recurrent weights' grad,
        # r has no effect, and nothing reads the gradient of h0
        _, z, _, _, c = cache[0]
        dh_tot = douts[0] + dh
        das[0, :, :hh] = dh_tot * -c * z * (1.0 - z)
        das[0, :, hh:2 * hh] = 0.0
        das[0, :, 2 * hh:] = dh_tot * (1.0 - z) * (1.0 - c * c)
        if xs.shape[0] != das.shape[0]:
            das = das.sum(axis=0, keepdims=True)
        da2 = das.reshape(-1, 3 * hh)
        gwx, gb = _grad(tape, self.wx), _grad(tape, self.b)
        gwx += xs.reshape(-1, self.n_in).T @ da2
        gb += da2.sum(axis=0)
        return das @ self.wx.value.T if input_grad else None
