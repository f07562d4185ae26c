"""End-to-end BICM chain and empirical verification of its binary channel.

The transmit path is encoder -> per-frame random interleaver -> modulator ->
complex AWGN -> bit-LLR demapper -> deinterleaver.  On top of it sit the
channel-model checks: per-position crossover estimation, the binary-symmetry
z-test, the memorylessness (pairwise flip correlation) probe, and a
semi-analytic crossover oracle computed by Gaussian integration over the
max-log decision regions.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .gf2code import LinearCode
from .modem import (
    Constellation,
    NoiseConfig,
    awgn,
    clamp_llrs,
    demap,
    hard_split,
    modulate,
)

__all__ = [
    "draw_interleaver",
    "interleave",
    "deinterleave",
    "FrameBatch",
    "transmit_batch",
    "ChannelEstimate",
    "estimate_channel",
    "SymmetryResult",
    "bsc_symmetry_ztest",
    "MemorylessnessResult",
    "measure_flip_correlation",
    "predicted_crossover",
]


def draw_interleaver(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of [0..n-1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.permutation(n)


def interleave(v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return np.asarray(v)[..., perm]


def deinterleave(v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(np.asarray(v))
    out[..., perm] = v
    return out


def _padded_length(n: int, m: int) -> int:
    return ((n + m - 1) // m) * m


@dataclass(frozen=True)
class FrameBatch:
    """Vectorized transmission records; every field has a leading frame axis."""

    u: np.ndarray              # (B, k) messages
    c: np.ndarray              # (B, n) codewords
    c_tilde: np.ndarray        # (B, n) interleaved code bits
    perms: np.ndarray          # (B, n) interleaver permutations
    llr_tilde: np.ndarray      # (B, n) pre-deinterleave LLRs (pad stripped)
    llr: np.ndarray            # (B, n) LLRs in code order
    hard: np.ndarray           # (B, n) hard decisions 1(llr < 0)
    reliab: np.ndarray         # (B, n) |llr|
    flips: np.ndarray          # (B, n) w^b = c xor hard

    def __len__(self) -> int:
        return self.u.shape[0]


def transmit_batch(
    code: LinearCode,
    const: Constellation,
    noise: NoiseConfig,
    rng: np.random.Generator,
    n_frames: int,
    *,
    u: np.ndarray | None = None,
    demap_kind: str = "exact",
    interleaver: np.ndarray | None = None,
    pad: bool = False,
) -> FrameBatch:
    """Simulate n_frames full chains with i.i.d. uniform messages.

    interleaver=None draws a fresh uniform permutation per frame; passing a
    fixed permutation pins it for every frame.  When the symbol width m does
    not divide n, pad=True appends known zero bits after the interleaver and
    strips their LLRs at the receiver; otherwise this is an error.
    """
    n, k, m = code.n, code.k, const.m
    if n % m != 0 and not pad:
        raise ValueError(
            f"m = {m} does not divide n = {n}; enable zero padding"
        )
    n_pad = _padded_length(n, m)

    if u is None:
        u = rng.integers(0, 2, size=(n_frames, k), dtype=np.uint8)
    else:
        u = np.asarray(u, dtype=np.uint8).reshape(n_frames, k)
    c = code.encode(u)

    if interleaver is None:
        keys = rng.random((n_frames, n))
        perms = np.argsort(keys, axis=1)
    else:
        perms = np.broadcast_to(np.asarray(interleaver), (n_frames, n))
    c_tilde = np.take_along_axis(c, perms, axis=1)

    tx_bits = c_tilde
    if n_pad != n:
        zeros = np.zeros((n_frames, n_pad - n), dtype=np.uint8)
        tx_bits = np.concatenate([c_tilde, zeros], axis=1)

    x = modulate(const, tx_bits)
    y = awgn(x, noise, rng)
    llr_full = clamp_llrs(demap(const, y, noise, kind=demap_kind))
    llr_tilde = llr_full[:, :n]
    llr = _deint_rows(llr_tilde, perms)
    hard, reliab = hard_split(llr)
    flips = c ^ hard
    return FrameBatch(
        u=u, c=c, c_tilde=c_tilde, perms=perms,
        llr_tilde=llr_tilde, llr=llr, hard=hard, reliab=reliab, flips=flips,
    )


def _deint_rows(v: np.ndarray, perms: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    np.put_along_axis(out, perms, v, axis=1)
    return out


@dataclass
class ChannelEstimate:
    """Flip counts of hard decisions vs transmitted bits, per constellation
    bit position s in [1..m] and per transmitted value c in {0, 1}.

    Counts are plain sums, so shards from concurrent workers merge by
    addition.
    """

    m: int
    flips: np.ndarray | None = None   # (m, 2) float64 counts
    totals: np.ndarray | None = None  # (m, 2)

    def __post_init__(self):
        if self.flips is None:
            self.flips = np.zeros((self.m, 2))
        if self.totals is None:
            self.totals = np.zeros((self.m, 2))

    def accumulate(self, positions: np.ndarray, sent: np.ndarray,
                   flipped: np.ndarray) -> None:
        for s in range(self.m):
            ps = positions == s
            for c in (0, 1):
                sel = ps & (sent == c)
                self.totals[s, c] += np.count_nonzero(sel)
                self.flips[s, c] += np.count_nonzero(flipped & sel)

    def merge(self, other: "ChannelEstimate") -> "ChannelEstimate":
        if other.m != self.m:
            raise ValueError("position counts differ")
        self.flips += other.flips
        self.totals += other.totals
        return self

    def p_hat(self, s: int, c: int) -> float:
        """Estimated flip probability at 1-based position s given sent c."""
        return float(self.flips[s - 1, c] / self.totals[s - 1, c])

    def pooled_q(self) -> float:
        """(1/m) sum_s p_hat(s, 0): the position-averaged crossover."""
        return float(np.mean(self.flips[:, 0] / self.totals[:, 0]))

    def pooled_q_stderr(self) -> float:
        p = self.flips[:, 0] / self.totals[:, 0]
        var = p * (1 - p) / self.totals[:, 0]
        return float(np.sqrt(np.sum(var)) / self.m)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("s,c,flips,total,p_hat\n")
        for s in range(self.m):
            for c in (0, 1):
                t = self.totals[s, c]
                p = self.flips[s, c] / t if t else float("nan")
                out.write(f"{s + 1},{c},{int(self.flips[s, c])},{int(t)},{p:.8g}\n")
        return out.getvalue()


def estimate_channel(
    code: LinearCode,
    const: Constellation,
    noise: NoiseConfig,
    frames: int,
    rng: np.random.Generator,
    *,
    demap_kind: str = "maxlog",
    pad: bool = False,
    chunk: int = 8192,
) -> ChannelEstimate:
    """Accumulate hard-decision flip statistics over `frames` transmissions.

    Statistics live in the interleaved (constellation) domain: slot j of a
    frame occupies bit position (j mod m) + 1 of symbol j // m.  Pad slots
    carry known constant bits, so any symbol containing padding is excluded:
    its code bits do not see the uniform-neighbor channel the position-wise
    law describes.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    n, m = code.n, const.m
    n_clean = (n // m) * m  # slots in symbols free of padding
    positions = (np.arange(n_clean) % m).astype(np.int64)
    est = ChannelEstimate(m=m)
    done = 0
    while done < frames:
        b = min(chunk, frames - done)
        fb = transmit_batch(code, const, noise, rng, b,
                            demap_kind=demap_kind, pad=pad)
        c_tilde = fb.c_tilde[:, :n_clean]
        hard_tilde = (fb.llr_tilde[:, :n_clean] < 0)
        flipped = hard_tilde ^ c_tilde.astype(bool)
        pos = np.broadcast_to(positions, c_tilde.shape)
        est.accumulate(pos.ravel(), c_tilde.ravel(), flipped.ravel())
        done += b
    return est


@dataclass(frozen=True)
class SymmetryResult:
    """z-statistics for p(1|0) = p(0|1), per position and pooled."""

    z_by_position: np.ndarray
    z_pooled: float

    def max_abs_z(self) -> float:
        return float(max(np.max(np.abs(self.z_by_position)),
                         abs(self.z_pooled)))


def bsc_symmetry_ztest(est: ChannelEstimate, min_samples: int = 10_000
                      ) -> SymmetryResult:
    """Two-proportion z-test of the crossover symmetry per bit position.

    z = (p_hat(1|0) - p_hat(0|1)) / stderr with the pooled binomial stderr.
    Requires at least min_samples observations of each conditional.
    """
    if np.any(est.totals < min_samples):
        raise ValueError(
            f"insufficient samples: need >= {min_samples} per (position, bit)"
        )
    zs = np.empty(est.m)
    for s in range(est.m):
        zs[s] = _two_proportion_z(
            est.flips[s, 0], est.totals[s, 0],
            est.flips[s, 1], est.totals[s, 1],
        )
    z_pool = _two_proportion_z(
        est.flips[:, 0].sum(), est.totals[:, 0].sum(),
        est.flips[:, 1].sum(), est.totals[:, 1].sum(),
    )
    return SymmetryResult(z_by_position=zs, z_pooled=float(z_pool))


def _two_proportion_z(x0: float, n0: float, x1: float, n1: float) -> float:
    p0, p1 = x0 / n0, x1 / n1
    pooled = (x0 + x1) / (n0 + n1)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n0 + 1 / n1))
    if se == 0:
        return 0.0
    return (p0 - p1) / se


@dataclass(frozen=True)
class MemorylessnessResult:
    corr: np.ndarray  # (n, n) pairwise flip correlations, zero diagonal

    @property
    def max_abs_corr(self) -> float:
        return float(np.max(np.abs(self.corr)))


def measure_flip_correlation(
    code: LinearCode,
    const: Constellation,
    noise: NoiseConfig,
    frames: int,
    rng: np.random.Generator,
    *,
    demap_kind: str = "maxlog",
    interleaver: np.ndarray | None = None,
    pad: bool = False,
    chunk: int = 16384,
) -> MemorylessnessResult:
    """Empirical pairwise correlation of flip indicators across code positions.

    With a fresh interleaver per frame the flips should be indistinguishable
    from independent; a pinned interleaver exposes the same-symbol coupling.
    """
    n = code.n
    s1 = np.zeros(n)
    s2 = np.zeros((n, n))
    done = 0
    while done < frames:
        b = min(chunk, frames - done)
        fb = transmit_batch(code, const, noise, rng, b,
                            demap_kind=demap_kind, interleaver=interleaver,
                            pad=pad)
        w = fb.flips.astype(np.float64)
        s1 += w.sum(axis=0)
        s2 += w.T @ w
        done += b
    mean = s1 / frames
    cov = s2 / frames - np.outer(mean, mean)
    sd = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 0.0)
    return MemorylessnessResult(corr=corr)


# ---------------------------------------------------------------------------
# semi-analytic crossover oracle
# ---------------------------------------------------------------------------

def _q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2))


def _gauss_sector_prob(center: complex, sigma2: float,
                       theta_lo: float, theta_hi: float) -> float:
    """P(y in sector theta_lo..theta_hi) for y ~ CN(center, sigma2).

    Plain 2-D quadrature of the Gaussian density in polar coordinates.
    """
    from scipy.integrate import dblquad

    a = abs(center)
    phi = math.atan2(center.imag, center.real)
    rmax = a + 10.0 * math.sqrt(sigma2)

    def pdf(r: float, theta: float) -> float:
        d2 = r * r - 2.0 * r * a * math.cos(theta - phi) + a * a
        return r / (math.pi * sigma2) * math.exp(-d2 / sigma2)

    val, _ = dblquad(pdf, theta_lo, theta_hi, 0.0, rmax,
                     epsabs=1e-11, epsrel=1e-11)
    return val


# flip regions of the Gray 8-PSK bits under the max-log rule, as angular
# sectors: bit 1 flips below the real axis, bit 2 left of the imaginary
# axis, bit 3 around the diagonals
_PSK8_FLIP_SECTORS = {
    1: [(-math.pi, 0.0)],
    2: [(math.pi / 2, math.pi), (-math.pi, -math.pi / 2)],
    3: [(math.pi / 4, 3 * math.pi / 4), (-3 * math.pi / 4, -math.pi / 4)],
}


def predicted_crossover(const: Constellation, noise: NoiseConfig
                        ) -> tuple[np.ndarray, float]:
    """Semi-analytic per-position flip probabilities P(1|0) and pooled q.

    Integrates the complex Gaussian over the max-log decision regions:
    half-plane tails for BPSK/QPSK, strip integrals for 16-QAM, and 2-D
    quadrature over the angular sectors for 8-PSK.
    """
    s2 = noise.sigma2
    s1d = math.sqrt(s2 / 2.0)
    if const.name == "bpsk":
        per = np.array([_q_func(1.0 / s1d)])
    elif const.name == "qpsk":
        d = 1.0 / math.sqrt(2.0)
        per = np.array([_q_func(d / s1d)] * 2)
    elif const.name == "qam16":
        a1, a3, b = 1 / math.sqrt(10), 3 / math.sqrt(10), 2 / math.sqrt(10)
        # sign bit, sent 0: transmitted level +a1 or +a3 equally often
        p_sign = 0.5 * (_q_func(a1 / s1d) + _q_func(a3 / s1d))
        # magnitude bit, sent 0 (outer): flip when |y| falls inside +-b
        p_mag = (_phi((b - a3) / s1d) - _phi((-b - a3) / s1d))
        per = np.array([p_sign, p_mag, p_sign, p_mag])
    elif const.name == "psk8":
        per = np.empty(3)
        for s in (1, 2, 3):
            pts = const.bit_subset(s, 0)
            acc = 0.0
            for x in pts:
                for lo, hi in _PSK8_FLIP_SECTORS[s]:
                    acc += _gauss_sector_prob(complex(x), s2, lo, hi)
            per[s - 1] = acc / pts.size
    else:
        raise ValueError(f"no crossover oracle for {const.name!r}")
    return per, float(np.mean(per))


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2))
