"""End-to-end BICM chain and empirical verification of its binary channel.

The transmit path is encoder -> per-frame random interleaver -> modulator ->
complex AWGN -> bit-LLR demapper -> deinterleaver.  On top of it sit the
channel-model checks: one pass of max-log transmissions that gathers both
the per-position crossover counts and the pairwise flip moments
(channel_statistics), the binary-symmetry z-test and the memorylessness
(pairwise flip correlation) bound that read it, and an analytic crossover
oracle: the Gaussian mass of the max-log decision regions in closed form.
"""

from __future__ import annotations

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
    modulate,
)
# hard_split stays importable from here: bench/spans.py traces it by this name
from .modem import hard_split  # noqa: F401

__all__ = [
    "draw_interleaver",
    "interleave",
    "deinterleave",
    "FrameBatch",
    "transmit_batch",
    "ChannelStatistics",
    "channel_statistics",
    "SymmetryResult",
    "bsc_symmetry_ztest",
    "predicted_crossover",
]


def draw_interleaver(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of [0..n-1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.permutation(n)


def interleave(v: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Row-wise permutation: row i of the result is v[i, perms[i]]."""
    n = perms.shape[-1]
    starts = np.arange(0, perms.size, n).reshape(perms.shape[:-1] + (1,))
    return np.take(v, perms + starts)


def deinterleave(v: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The inverse of interleave: row i of the result at perms[i] is v[i]."""
    out = np.empty_like(v)
    np.put_along_axis(out, perms, v, axis=-1)
    return out


def _fresh_perms(rng: np.random.Generator, frames: int, n: int
                 ) -> np.ndarray:
    """(frames, n) uniform permutations, one per frame: the argsort of
    fresh uniform keys, which are let go once sorted."""
    return np.argsort(rng.random((frames, n)), axis=1)


def _padded_length(n: int, m: int) -> int:
    return ((n + m - 1) // m) * m


@dataclass(frozen=True)
class FrameBatch:
    """Vectorized transmission records; every field has a leading frame axis.
    The interleaved bits and LLRs are interleave(c, perms) and
    interleave(llr, perms), and the hard decisions hard_split(llr)[0]."""

    u: np.ndarray              # (B, k) messages
    c: np.ndarray              # (B, n) codewords
    perms: np.ndarray          # (B, n) interleaver permutations
    llr: np.ndarray            # (B, n) LLRs in code order


def transmit_batch(
    code: LinearCode,
    const: Constellation,
    noise: NoiseConfig,
    rng: np.random.Generator,
    n_frames: int,
    *,
    demap_kind: str = "exact",
    interleaver: np.ndarray | None = None,
) -> FrameBatch:
    """Simulate n_frames full chains with i.i.d. uniform messages.

    interleaver=None draws a fresh uniform permutation per frame; passing a
    fixed permutation pins it for every frame.  When the symbol width m does
    not divide n, known zero bits are appended after the interleaver and
    their LLRs stripped at the receiver.

    Each stage's input is let go once the stage has run, so at most one
    (n_frames, n_pad) float64 array lives beside the returned batch (the
    demapped LLRs while they are deinterleaved).
    """
    n, k, m = code.n, code.k, const.m
    n_pad = _padded_length(n, m)

    u = rng.integers(0, 2, size=(n_frames, k), dtype=np.uint8)
    c = code.encode(u)

    if interleaver is None:
        perms = _fresh_perms(rng, n_frames, n)
    else:
        perms = np.broadcast_to(np.asarray(interleaver), (n_frames, n))
    tx_bits = interleave(c, perms)
    if n_pad != n:
        zeros = np.zeros((n_frames, n_pad - n), dtype=np.uint8)
        tx_bits = np.concatenate([tx_bits, zeros], axis=1)

    x = modulate(const, tx_bits)
    del tx_bits
    y = awgn(x, noise, rng)
    del x
    llr = demap(const, y, noise, kind=demap_kind)
    del y
    llr = clamp_llrs(llr)[:, :n]
    return FrameBatch(u=u, c=c, perms=perms, llr=deinterleave(llr, perms))


@dataclass(frozen=True)
class ChannelStatistics:
    """Hard-decision flip statistics of `frames` max-log transmissions.

    flips and totals count, per constellation bit position s in [1..m] and
    per sent value c in {0, 1}, the flips and the observations in the
    interleaved domain, over symbols free of padding.  w_sum and w_gram are
    the code-order sums of the flip indicators w = c ^ l^b and of w^T w, from
    which the pairwise flip correlations follow.
    """

    frames: int
    flips: np.ndarray    # (m, 2) counts
    totals: np.ndarray   # (m, 2)
    w_sum: np.ndarray    # (n,)
    w_gram: np.ndarray   # (n, n)

    @property
    def m(self) -> int:
        return self.flips.shape[0]

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

    def corr(self) -> np.ndarray:
        """(n, n) pairwise flip correlations across code positions, with a
        zero diagonal."""
        mean = self.w_sum / self.frames
        cov = self.w_gram / self.frames - np.outer(mean, mean)
        sd = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
        corr = cov / np.outer(sd, sd)
        np.fill_diagonal(corr, 0.0)
        return corr

    @property
    def max_abs_corr(self) -> float:
        return float(np.max(np.abs(self.corr())))


def channel_statistics(
    code: LinearCode,
    const: Constellation,
    noise: NoiseConfig,
    frames: int,
    rng: np.random.Generator,
    *,
    interleaver: np.ndarray | None = None,
) -> ChannelStatistics:
    """Flip statistics over `frames` max-log transmissions, drawn in chunks
    of 8192 frames (the chunks order the RNG draws, so they fix the counts).

    The per-position counts live in the interleaved (constellation) domain:
    slot j of a frame occupies bit position (j mod m) + 1 of symbol j // m.
    Pad slots carry known constant bits, so any symbol containing padding is
    excluded: its code bits do not see the uniform-neighbor channel the
    position-wise law describes.  The correlations live in the code domain.
    With a fresh interleaver per frame the flips should be indistinguishable
    from independent; a pinned interleaver exposes the same-symbol coupling.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    n, m = code.n, const.m
    n_clean = (n // m) * m  # slots free of padding
    # key 4(s - 1) + 2c + w of each pad-free slot, s its bit position
    offset = 4 * (np.arange(n_clean) % m)
    counts = np.zeros(4 * m, dtype=np.int64)
    w_sum = np.zeros(n)
    w_gram = np.zeros((n, n))
    done = 0
    while done < frames:
        b = min(8192, frames - done)
        fb = transmit_batch(code, const, noise, rng, b, demap_kind="maxlog",
                            interleaver=interleaver)
        w = fb.c ^ (fb.llr < 0)
        key = interleave(2 * fb.c + w, fb.perms)[:, :n_clean] + offset
        counts += np.bincount(key.ravel(), minlength=4 * m)
        w = w.astype(np.float64)
        w_sum += w.sum(axis=0)
        w_gram += w.T @ w
        done += b
    counts = counts.reshape(m, 2, 2)  # [s - 1, c, w]
    return ChannelStatistics(frames=frames, flips=counts[:, :, 1],
                             totals=counts.sum(axis=2), w_sum=w_sum,
                             w_gram=w_gram)


@dataclass(frozen=True)
class SymmetryResult:
    """z-statistics for p(1|0) = p(0|1), per position and pooled."""

    z_by_position: np.ndarray
    z_pooled: float

    def max_abs_z(self) -> float:
        return float(max(np.max(np.abs(self.z_by_position)),
                         abs(self.z_pooled)))


def bsc_symmetry_ztest(est: ChannelStatistics) -> SymmetryResult:
    """Two-proportion z-test of the crossover symmetry per bit position.

    z = (p_hat(1|0) - p_hat(0|1)) / stderr with the pooled binomial stderr.
    Requires at least 10000 observations of each conditional.
    """
    if np.any(est.totals < 10_000):
        raise ValueError(
            "insufficient samples: need >= 10000 per (position, bit)"
        )
    # rows: the m positions, then all positions pooled
    flips = np.vstack([est.flips, est.flips.sum(axis=0)])
    totals = np.vstack([est.totals, est.totals.sum(axis=0)])
    p = flips / totals
    pooled = flips.sum(axis=1) / totals.sum(axis=1)
    se = np.sqrt(pooled * (1 - pooled) * (1 / totals[:, 0] + 1 / totals[:, 1]))
    z = np.divide(p[:, 0] - p[:, 1], se, out=np.zeros_like(se), where=se != 0)
    return SymmetryResult(z_by_position=z[:-1], z_pooled=float(z[-1]))


# ---------------------------------------------------------------------------
# analytic crossover oracle
# ---------------------------------------------------------------------------

def _axis_crossover(levels: np.ndarray, labels: np.ndarray, s1d: float
                    ) -> list[float]:
    """P(1|0) of each bit of a PAM axis in N(0, s1d^2) noise: the Gaussian
    mass of the nearest-level intervals whose bit is 1, averaged over the
    levels whose bit is 0."""
    order = np.argsort(levels)
    lv, lab = levels[order], labels[order]
    edges = np.concatenate([[-np.inf], (lv[1:] + lv[:-1]) / 2, [np.inf]])
    per = []
    for bit in lab.T:
        acc = 0.0
        for a in lv[bit == 0]:
            for j in np.flatnonzero(bit):
                lo, hi = (edges[j] - a) / s1d, (edges[j + 1] - a) / s1d
                if lo < 0:
                    # mirror onto the upper tail: a difference of two upper
                    # tails keeps its relative precision at high SNR
                    lo, hi = -hi, -lo
                acc += 0.5 * (math.erfc(lo / math.sqrt(2))
                              - math.erfc(hi / math.sqrt(2)))
        per.append(acc / np.count_nonzero(bit == 0))
    return per


def _psk8_crossover(const: Constellation, s2: float) -> list[float]:
    """P(1|0) of each Gray 8-PSK bit under the max-log rule, in closed form.

    Bit 1 flips where Im y < 0, bit 2 where Re y < 0, and bit 3 where
    |Im y| > |Re y|, that is where u and v of u + iv = y e^{-i pi/4} share
    a sign.  The rotation keeps u and v independent N(., s2/2).
    """
    sd = math.sqrt(s2)

    def above(mean: float) -> float:
        """P(N(mean, s2/2) > 0), an upper tail where mean < 0."""
        return 0.5 * math.erfc(-mean / sd)

    def flip(s: int, x: complex) -> float:
        if s < 3:
            return above(-(x.imag if s == 1 else x.real))
        w = x * complex(1, -1) / math.sqrt(2)
        return above(w.real) * above(w.imag) + above(-w.real) * above(-w.imag)

    return [float(np.mean([flip(s, complex(x))
                           for x in const.bit_subset(s, 0)]))
            for s in (1, 2, 3)]


def predicted_crossover(const: Constellation, noise: NoiseConfig
                        ) -> tuple[np.ndarray, float]:
    """Per-position flip probabilities P(1|0) and the pooled q.

    The Gaussian mass of the max-log flip regions in closed form: the
    nearest-level intervals of each PAM axis of BPSK, QPSK and 16-QAM, and
    half-planes and quadrant pairs for 8-PSK.
    """
    s2 = noise.sigma2
    if const.name == "psk8":
        per = np.array(_psk8_crossover(const, s2))
    else:
        per = np.concatenate([
            _axis_crossover(coords[:, 0], labels, math.sqrt(s2 / 2.0))
            for coords, labels in const.factors])
    return per, float(np.mean(per))
