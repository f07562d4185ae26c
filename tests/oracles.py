"""Reference computations that only the tests read."""

import io

import numpy as np

from bicmlab.bicm import ChannelStatistics
from bicmlab.gf2code import LinearCode, all_messages
from bicmlab.neural import bce_with_logits


def map_noise_equivalence(code: LinearCode, q: float, hard: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive message-side and noise-side MAP under a BSC(q) surrogate.

    Message side: argmax_u P(l^b | encode(u)), i.e. the codeword nearest to
    the hard decisions for q < 0.5.  Noise side: the flip pattern w maximizing
    P(W_u = w | l^b) over the syndrome coset, applied to p_inv(l^b).  Ties go
    to the lexicographically smallest candidate on each side.  Returns both
    message estimates so callers can assert they coincide.
    """
    if code.k > 16:
        raise ValueError("exhaustive equivalence limited to k <= 16")
    if not 0 < q < 0.5:
        raise ValueError("q must be in (0, 0.5)")
    hard = np.asarray(hard, dtype=np.uint8)
    msgs = all_messages(code.k)
    cws = code.encode(msgs)

    # message side: minimize Hamming distance, lexicographically first winner
    dists = np.count_nonzero(cws ^ hard, axis=1)
    u_message = msgs[int(np.argmin(dists))]

    # noise side: walk the coset l^b xor C; each member maps to a distinct
    # candidate w = A (l^b xor c), with likelihood q^|w^b| (1-q)^(n-|w^b|)
    coset = hard ^ cws
    weights = np.count_nonzero(coset, axis=1)
    w_candidates = code.p_inv_apply(coset)
    best = None
    for i in range(coset.shape[0]):
        key = (weights[i], tuple(w_candidates[i].tolist()))
        if best is None or key < best[0]:
            best = (key, i)
    w_star = w_candidates[best[1]]
    u_noise = code.p_inv_apply(hard) ^ w_star
    return u_message, u_noise


def channel_csv(est: ChannelStatistics) -> str:
    """The flip counts of est as CSV rows (s, c, flips, total, p_hat)."""
    out = io.StringIO()
    out.write("s,c,flips,total,p_hat\n")
    for s in range(est.m):
        for c in (0, 1):
            t = est.totals[s, c]
            p = est.flips[s, c] / t if t else float("nan")
            out.write(f"{s + 1},{c},{int(est.flips[s, c])},{int(t)},{p:.8g}\n")
    return out.getvalue()


def all_zeros_baseline_bce(targets: np.ndarray) -> float:
    """BCE of the best constant predictor: the entropy of the flip rate.

    A useful floor when judging whether an estimator learned anything.
    """
    p = float(np.mean(targets))
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * np.log(p) + (1 - p) * np.log(1 - p)))


def gradient_check(net, x: np.ndarray, targets: np.ndarray,
                   rng: np.random.Generator, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples up to 12 indices from every parameter block and steps each by
    step.  The net must be built in float64 for the comparison to be
    meaningful.
    """
    samples_per_block = 12
    params = net.params()
    if any(p.value.dtype != np.float64 for p in params):
        raise ValueError("gradient_check requires a float64 network")

    def loss_only() -> float:
        return bce_with_logits(net.forward(x), targets)[0]

    # the backward adds into the tape's accumulators: seeded with the
    # zeroed grads, it leaves the gradient in p.grad
    for p in params:
        p.grad[...] = 0
    tape: dict = {p: p.grad for p in params}
    logits = net.forward(x, tape)
    loss, dz = bce_with_logits(logits, targets)
    net.backward(dz, tape)

    worst = 0.0
    for p in params:
        flat_v = p.value.reshape(-1)
        flat_g = p.grad.reshape(-1)
        n_idx = min(samples_per_block, flat_v.size)
        idx = rng.choice(flat_v.size, size=n_idx, replace=False)
        for i in idx:
            keep = flat_v[i]
            flat_v[i] = keep + step
            up = loss_only()
            flat_v[i] = keep - step
            down = loss_only()
            flat_v[i] = keep
            numeric = (up - down) / (2 * step)
            analytic = flat_g[i]
            scale = max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst
