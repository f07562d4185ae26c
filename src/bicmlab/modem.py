"""Constellations, complex AWGN and bit-LLR demodulation.

The four supported constellations (BPSK, QPSK, Gray 8-PSK, Gray 16-QAM) are
defined in code, not config, so the labelings are bit-exact.  All are unit
average energy on the complex channel y = x + w, w ~ CN(0, sigma2).

One demapper serves every constellation and both BICM metrics: the exact
and the max-log bit-LLR differ only in how each label subset's point
metrics are reduced, by log-sum-exp or by max (Caire, Taricco & Biglieri,
"Bit-interleaved coded modulation", IEEE Trans. IT 1998).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Constellation:
    """M complex points with an m-bit label per point (a bijection)."""

    name: str
    points: np.ndarray  # (M,) complex128, unit average energy
    labels: np.ndarray  # (M, m) uint8

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        lab = np.asarray(self.labels, dtype=np.uint8)
        if pts.ndim != 1 or lab.shape != (pts.size, self.m):
            raise ValueError("inconsistent points/labels shapes")
        if abs(np.mean(np.abs(pts) ** 2) - 1.0) > 1e-12:
            raise ValueError(f"{self.name}: average energy != 1")
        ints = self.label_ints()
        if len(set(ints.tolist())) != pts.size:
            raise ValueError(f"{self.name}: labels are not a bijection")
        pts.setflags(write=False)
        lab.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    @property
    def M(self) -> int:
        return self.points.size

    @property
    def m(self) -> int:
        return int(np.asarray(self.labels).shape[1])

    def label_ints(self) -> np.ndarray:
        """Label of each point packed as an integer, MSB = bit position 1."""
        lab = np.asarray(self.labels, dtype=np.int64)
        weights = 1 << np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return lab @ weights

    def point_index_of_label(self) -> np.ndarray:
        """Inverse map: label integer -> point index."""
        inv = np.empty(self.M, dtype=np.int64)
        inv[self.label_ints()] = np.arange(self.M)
        return inv

    def bit_subset(self, s: int, c: int) -> np.ndarray:
        """Points whose bit position s (1-based) equals c."""
        if not 1 <= s <= self.m:
            raise ValueError(f"bit position {s} outside [1..{self.m}]")
        return self.points[self.labels[:, s - 1] == c]


def _bpsk() -> Constellation:
    return Constellation("bpsk", np.array([1.0 + 0j, -1.0 + 0j]), [[0], [1]])


def _qpsk() -> Constellation:
    # bit 1 = sign of Re, bit 2 = sign of Im; Gray by construction
    pts, labs = [], []
    for b1 in (0, 1):
        for b2 in (0, 1):
            re = 1.0 if b1 == 0 else -1.0
            im = 1.0 if b2 == 0 else -1.0
            pts.append((re + 1j * im) / np.sqrt(2))
            labs.append([b1, b2])
    return Constellation("qpsk", np.array(pts), labs)


def _psk8() -> Constellation:
    # points at pi/8 + t*pi/4 carrying the reflected Gray sequence of t,
    # which yields the three structural symmetries of the Gray-labeled ring:
    # bit 1 splits upper/lower half plane (conjugation), bit 2 left/right
    # (point reflection), bit 3 axes/diagonals (quarter-turn rotation).
    t = np.arange(8)
    pts = np.exp(1j * (2 * np.pi * t / 8 + np.pi / 8))
    gray = t ^ (t >> 1)
    labs = [[(v >> 2) & 1, (v >> 1) & 1, v & 1] for v in gray]
    return Constellation("psk8", pts, labs)


def _qam16() -> Constellation:
    # per-axis Gray on levels (+3, +1, -1, -3); bits 1-2 from the I axis,
    # bits 3-4 from the Q axis; bits 1/3 are sign bits, 2/4 inner/outer
    axis_gray = {3: (0, 0), 1: (0, 1), -1: (1, 1), -3: (1, 0)}
    pts, labs = [], []
    for a in (3, 1, -1, -3):
        for b in (3, 1, -1, -3):
            pts.append((a + 1j * b) / np.sqrt(10))
            labs.append(list(axis_gray[a]) + list(axis_gray[b]))
    return Constellation("qam16", np.array(pts), labs)


_KINDS = {
    "bpsk": _bpsk,
    "qpsk": _qpsk,
    "psk8": _psk8,
    "qam16": _qam16,
}


def build_constellation(kind: str) -> Constellation:
    key = kind.strip().lower()
    if key not in _KINDS:
        raise ValueError(f"unknown constellation {kind!r}; choose from "
                         f"bpsk, qpsk, psk8, qam16")
    return _KINDS[key]()


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
    groups = bits.reshape(bits.shape[:-1] + (nbits // m, m)).astype(np.int64)
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    idx = const.point_index_of_label()[groups @ weights]
    return const.points[idx]


def awgn(symbols: np.ndarray, noise: NoiseConfig,
         rng: np.random.Generator) -> np.ndarray:
    """y = x + w with w circular complex Gaussian of total variance sigma2."""
    std = np.sqrt(noise.sigma2 / 2.0)
    shape = np.shape(symbols)
    w = rng.normal(0.0, std, shape) + 1j * rng.normal(0.0, std, shape)
    return symbols + w


def demap(const: Constellation, y: np.ndarray, noise: NoiseConfig,
          kind: str = "exact") -> np.ndarray:
    """Bit-LLRs log P(y|bit=0) - log P(y|bit=1) of a (..., n_sym) symbol array.

    Point x scores z = (2 Re(y conj(x)) - |x|^2) / sigma2, which is
    -|y - x|^2 / sigma2 without the |y|^2 term that cancels in every LLR.
    Each bit position reduces its two label subsets of z with max; "exact"
    adds the max-shifted log-sum-exp remainder, "maxlog" stops at the max.
    Output: the per-frame flat LLR vector, shape (..., n_sym * m).
    """
    if kind not in ("exact", "maxlog"):
        raise ValueError(f"unknown demapper {kind!r}")
    y = np.asarray(y, dtype=np.complex128)
    pts = const.points
    # Re(y conj(x)) = Re y Re x + Im y Im x: one real (..., 2) @ (2, M)
    z = np.stack([y.real, y.imag], axis=-1) @ (
        np.stack([pts.real, pts.imag]) * (2.0 / noise.sigma2))
    z -= np.abs(pts) ** 2 / noise.sigma2
    out = np.empty(y.shape + (const.m,), dtype=np.float64)
    for s, bit in enumerate(const.labels.T):
        reduced = []
        for subset in (np.flatnonzero(bit == 0), np.flatnonzero(bit)):
            zs = z[..., subset]
            r = zs.max(axis=-1)
            if kind == "exact":
                zs -= r[..., None]
                r += np.log(np.exp(zs, out=zs).sum(axis=-1))
            reduced.append(r)
        out[..., s] = reduced[0] - reduced[1]
    return out.reshape(out.shape[:-2] + (-1,))


def hard_split(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hard decisions, reliabilities): l^b = 1(l < 0), |l|.

    The tie l = 0 maps to l^b = 0 so runs stay deterministic.
    """
    l = np.asarray(l, dtype=np.float64)
    return (l < 0).astype(np.uint8), np.abs(l)


def clamp_llrs(l: np.ndarray) -> np.ndarray:
    return np.clip(l, -LLR_CLAMP, LLR_CLAMP)
