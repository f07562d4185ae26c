"""Constellations, complex AWGN and bit-LLR demodulation.

A constellation is a Cartesian product of factors, each placing its points
on one or two real dimensions of the complex channel y = x + w,
w ~ CN(0, sigma2).  BPSK, QPSK and Gray 16-QAM are one Gray PAM axis per
real dimension, each axis carrying its own label bits; Gray 8-PSK is a
single two-dimensional factor.  The tables are defined in code, not config,
so the labelings are bit-exact, and all four have unit average energy.

One demapper serves every constellation and both BICM metrics.  |y - x|^2 is
a sum over the factors, so each factor's bits are demapped from its own
dimensions of y over its own points (Tosato & Bisaglia, "Simplified
soft-output demapper for binary interleaved COFDM", ICC 2002).  The exact
and the max-log bit-LLR differ only in how each label subset's point metrics
are reduced, by log-sum-exp or by max (Caire, Taricco & Biglieri,
"Bit-interleaved coded modulation", IEEE Trans. IT 1998).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LLR_CLAMP",
    "Constellation",
    "NoiseConfig",
    "build_constellation",
    "modulate",
    "awgn",
    "demap",
    "hard_split",
    "clamp_llrs",
]

# saturation for downstream consumers; keeps exp-free paths overflow-safe
LLR_CLAMP = 50.0


@dataclass(frozen=True, eq=False)
class Constellation:
    """The Cartesian product of factors, each a pair (coords, labels).

    A factor puts L points on the next d real dimensions of y (I, then Q):
    coords is (L, d) and labels (L, b) gives each point b label bits.  The
    factors span at most the two real dimensions.  Point i of the product
    takes one point of each factor, the first factor varying slowest; its
    coordinates and its label are the factors' in order.  `points` (M,)
    complex128 and `labels` (M, m) uint8 are read-only fields derived from
    the product; they must be unit average energy and a bijection.
    `point_of_label` (M,) complex128, also read-only, is the point that
    carries each label integer (see `label_ints`).
    """

    name: str
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    points: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)
    point_of_label: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        factors = tuple((np.array(c, dtype=np.float64),
                         np.array(l, dtype=np.uint8)) for c, l in self.factors)
        if any(c.ndim != 2 or l.ndim != 2 or len(l) != len(c)
               for c, l in factors):
            raise ValueError(f"{self.name}: a factor needs (L, d) coords and "
                             f"(L, b) labels")
        dims = sum(c.shape[1] for c, _ in factors)
        if dims > 2:
            raise ValueError(f"{self.name}: factors span {dims} real "
                             f"dimensions, more than two")
        grid = np.indices([len(c) for c, _ in factors]).reshape(len(factors), -1)
        xy = np.zeros((grid.shape[1], 2))
        xy[:, :dims] = np.concatenate(
            [c[i] for (c, _), i in zip(factors, grid)], axis=1)
        pts = xy.view(np.complex128).ravel()
        lab = np.concatenate([l[i] for (_, l), i in zip(factors, grid)], axis=1)
        for a in (pts, lab, *(a for f in factors for a in f)):
            a.setflags(write=False)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)
        if abs(np.mean(np.abs(pts) ** 2) - 1.0) > 1e-12:
            raise ValueError(f"{self.name}: average energy != 1")
        ints = self.label_ints()
        if np.unique(ints).size != pts.size:
            raise ValueError(f"{self.name}: labels are not a bijection")
        by_label = np.empty_like(pts)
        by_label[ints] = pts
        by_label.setflags(write=False)
        object.__setattr__(self, "point_of_label", by_label)

    @property
    def M(self) -> int:
        return self.points.size

    @property
    def m(self) -> int:
        return self.labels.shape[1]

    def label_ints(self) -> np.ndarray:
        """Label of each point packed as an integer, MSB = bit position 1."""
        weights = 1 << np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return self.labels.astype(np.int64) @ weights

    def bit_subset(self, s: int, c: int) -> np.ndarray:
        """Points whose bit position s (1-based) equals c."""
        if not 1 <= s <= self.m:
            raise ValueError(f"bit position {s} outside [1..{self.m}]")
        return self.points[self.labels[:, s - 1] == c]


def _gray_pam(levels: list[int], labels: list[list[int]], axes: int) -> tuple:
    """`axes` copies of one Gray PAM axis, scaled to unit total energy."""
    lv = np.array(levels, dtype=np.float64)[:, None]
    return ((lv / np.sqrt(axes * np.mean(lv ** 2)), labels),) * axes


def _psk8_ring() -> tuple[np.ndarray, np.ndarray]:
    # points at pi/8 + t*pi/4 carrying the reflected Gray sequence of t,
    # which yields the three structural symmetries of the Gray-labeled ring:
    # bit 1 splits upper/lower half plane (conjugation), bit 2 left/right
    # (point reflection), bit 3 axes/diagonals (quarter-turn rotation).
    theta = 2 * np.pi * np.arange(8) / 8 + np.pi / 8
    gray = np.arange(8) ^ (np.arange(8) >> 1)
    return (np.stack([np.cos(theta), np.sin(theta)], axis=1),
            (gray[:, None] >> np.array([2, 1, 0])) & 1)


# the factors of each constellation: BPSK, QPSK and 16-QAM are one Gray PAM
# axis per real dimension, I first (bits 1-2 of 16-QAM from I, 3-4 from Q;
# bits 1/3 are sign bits, 2/4 inner/outer); 8-PSK is one 2-D factor
_FACTORS = {
    "bpsk": _gray_pam([1, -1], [[0], [1]], 1),
    "qpsk": _gray_pam([1, -1], [[0], [1]], 2),
    "psk8": (_psk8_ring(),),
    "qam16": _gray_pam([3, 1, -1, -3], [[0, 0], [0, 1], [1, 1], [1, 0]], 2),
}


def build_constellation(kind: str) -> Constellation:
    if kind not in _FACTORS:
        raise ValueError(f"unknown constellation {kind!r}; choose from "
                         f"{', '.join(_FACTORS)}")
    return Constellation(kind, _FACTORS[kind])


@dataclass(frozen=True)
class NoiseConfig:
    """Total complex noise variance sigma2 (sigma2/2 per real dimension)."""

    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be > 0")

    @classmethod
    def from_esn0_db(cls, esn0_db: float) -> "NoiseConfig":
        return cls(sigma2=10.0 ** (-esn0_db / 10.0))

    @classmethod
    def from_ebn0_db(cls, ebn0_db: float, code_rate: float,
                     bits_per_symbol: int) -> "NoiseConfig":
        if not 0 < code_rate <= 1:
            raise ValueError("code rate must be in (0, 1]")
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        return cls(sigma2=1.0 / (code_rate * bits_per_symbol * ebn0))

    @property
    def esn0_db(self) -> float:
        return -10.0 * np.log10(self.sigma2)


def modulate(const: Constellation, bits: np.ndarray) -> np.ndarray:
    """Map bits to symbols; bit i lands in symbol i//m, position (i%m)+1.

    Accepts (nbits,) or a (..., nbits) batch; m must divide nbits.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    m = const.m
    nbits = bits.shape[-1]
    if nbits % m != 0:
        raise ValueError(f"{nbits} bits not divisible by m = {m}")
    groups = bits.reshape(bits.shape[:-1] + (nbits // m, m))
    label = groups[..., 0].astype(np.min_scalar_type(const.M - 1))
    for j in range(1, m):
        label <<= 1
        label |= groups[..., j]
    return const.point_of_label.take(label)


def awgn(symbols: np.ndarray, noise: NoiseConfig,
         rng: np.random.Generator) -> np.ndarray:
    """y = x + w with w circular complex Gaussian of total variance sigma2."""
    std = np.sqrt(noise.sigma2 / 2.0)
    shape = np.shape(symbols)
    y = np.empty(shape, dtype=np.complex128)
    y.real = rng.normal(0.0, std, shape)
    y.imag = rng.normal(0.0, std, shape)
    y += symbols
    return y


def _reduce(z: np.ndarray, kind: str) -> np.ndarray:
    """Max ("maxlog") or log-sum-exp ("exact") over the rows (axis -2) of
    the (..., K, N) point scores of label subsets.

    The log-sum-exp is shifted by the max and sums the exp terms in row
    order.  Two rows need one exp: the max's term is exp(0) = 1 and the
    other's exp(min - max).
    """
    rows = [z[..., j, :] for j in range(z.shape[-2])]
    if len(rows) == 1:
        return rows[0]
    r = np.maximum(rows[0], rows[1])
    for row in rows[2:]:
        np.maximum(r, row, out=r)
    if kind == "maxlog":
        return r
    if len(rows) == 2:
        t = np.minimum(rows[0], rows[1])
        t -= r
        np.exp(t, out=t)
        t += 1.0
    else:
        t = np.exp(rows[0] - r)
        for row in rows[1:]:
            t += np.exp(row - r)
    r += np.log(t, out=t)
    return r


def demap(const: Constellation, y: np.ndarray, noise: NoiseConfig,
          kind: str = "exact") -> np.ndarray:
    """Bit-LLRs log P(y|bit=0) - log P(y|bit=1) of a (..., n_sym) symbol array.

    |y - x|^2 is a sum over the factors, so each factor's bits are demapped
    from its own dimensions of (Re y, Im y) and its own L points.  Point x
    of a factor scores z = (2 <y, x> - |x|^2) / sigma2, which is
    -|y - x|^2 / sigma2 without the |y|^2 term that cancels in every LLR.
    A slice of N symbols at a time, the scores sit in an (L, N) array, one
    row per point: an outer product for a 1-D factor, the transpose of the
    (N, d) @ (d, L) product for a 2-D one.  Each bit's two label subsets
    are reduced row by row, elementwise: "maxlog" by np.maximum, "exact" by
    the max plus the log of the in-order sum of exp(z - max).
    Output: the per-frame flat LLR vector, shape (..., n_sym * m).
    """
    if kind not in ("exact", "maxlog"):
        raise ValueError(f"unknown demapper {kind!r}")
    y = np.ascontiguousarray(y, dtype=np.complex128)
    yr = y.view(np.float64).reshape(-1, 2)
    out = np.empty((y.size, const.m), dtype=np.float64)
    dim = bit = 0
    for coords, labels in const.factors:
        d, b = coords.shape[1], labels.shape[1]
        w = coords.T * (2.0 / noise.sigma2)
        e = (np.sum(coords ** 2, axis=1) / noise.sigma2)[:, None]
        # (b, 2, L/2): per bit, the points whose bit is 0, then those with 1
        subsets = np.array([[np.flatnonzero(col == c) for c in (0, 1)]
                            for col in labels.T])
        for s in range(0, len(yr), _SLICE_SYMBOLS):
            ys = yr[s:s + _SLICE_SYMBOLS, dim:dim + d]
            z = np.multiply.outer(w[0], ys[:, 0]) if d == 1 else (ys @ w).T
            z -= e
            r = _reduce(z[subsets], kind)
            np.subtract(r[:, 0], r[:, 1],
                        out=out[s:s + _SLICE_SYMBOLS, bit:bit + b].T)
        dim += d
        bit += b
    return out.reshape(y.shape[:-1] + (-1,))


# symbols demapped together: a slice's scores and temporaries stay small
# enough that malloc reuses them instead of refaulting fresh pages (exact
# demap of a 2048-frame polar_128_64 16-QAM chunk: about 2.6k minor faults
# and 16 ms unsliced, 26 faults and 6 ms sliced, one thread)
_SLICE_SYMBOLS = 4096


def hard_split(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hard decisions, reliabilities): l^b = 1(l < 0), |l|.

    The tie l = 0 maps to l^b = 0 so runs stay deterministic.
    """
    l = np.asarray(l, dtype=np.float64)
    return (l < 0).astype(np.uint8), np.abs(l)


def clamp_llrs(l: np.ndarray) -> np.ndarray:
    """Saturate l to [-LLR_CLAMP, LLR_CLAMP] in place; returns l."""
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP, out=l)
