#!/usr/bin/env python3
"""Time per phase of a 2048-frame OSD chunk.

For polar_64_32 at order 2 and polar_128_64 at orders 1 and 2, simulates a
seeded 2048-frame chunk (QPSK, max-log demap, Eb/N0 3 dB by default: the
point of the `osd2-qpsk` benchmark workload) and decodes it REPEATS times
through the phases of `refdec.osd_decode`, timing each:

    rank        `_ranking`: the default sort, re-sorted stably only on the
                rows with an exact tie
    eliminate   `_reduce_on_ranking`: the gather of the generator's column
                words, the lock-step Gauss-Jordan, the un-permute of the
                reduced columns to transmission order, the basis and the
                info words
    discrepancy c0 by popcount parity, its metric, and `_effective_orders`,
                which leaves each frame the flip weights that may still win
    score       `_osd_scores` over all slices of each effective order: d
                and the float32 Gram matrix of R unpacked from the column
                words
    re-encode   `_osd_best` over the same slices: pick, re-encode by
                popcount parity, exact rescore

and prints the median ms per chunk of each phase and of their sum; the tie
frames, whose float32 shortlist holds more than one pattern, so that
`_osd_best` re-encodes and rescores them one by one in its per-frame
`_lex_best` loop; and the frames at each effective order, 0/1/.../order
(order 0 keeps c0 and is never scored).  Every pass is checked against one
`osd_decode` call of the same chunk, so the phases are the decoder's own.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.  The allocator
runs under the policy `harness.run_point` sets
(`harness.set_allocator_policy`), so the times are those of a chunk in a
sweep.

    python3 tools/osd_phases.py
    python3 tools/osd_phases.py --runs polar_64_32:2 --repeats 9
    python3 tools/osd_phases.py --runs polar_64_32:2 --ebn0-db 5
"""

import argparse
import os
import pathlib
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bicmlab import harness, refdec  # noqa: E402
from bicmlab.bicm import transmit_batch  # noqa: E402
from bicmlab.gf2code import get_code  # noqa: E402
from bicmlab.modem import NoiseConfig, build_constellation  # noqa: E402

RUNS = ("polar_64_32:2", "polar_128_64:1", "polar_128_64:2")
PHASES = ("rank", "eliminate", "discrepancy", "score", "re-encode")
FRAMES = 2048
EBN0_DB = 3.0
REPEATS = 5
SEED = 0


def chunk(code_name: str, seed: int, ebn0_db: float
          ) -> tuple[object, np.ndarray]:
    """The code and the LLRs of one seeded 2048-frame QPSK max-log chunk."""
    code = get_code(code_name)
    const = build_constellation("qpsk")
    noise = NoiseConfig.from_ebn0_db(ebn0_db, code.rate, const.m)
    fb = transmit_batch(code, const, noise, np.random.default_rng(seed),
                        FRAMES, demap_kind="maxlog")
    return code, fb.llr


def decode_in_phases(code, llr: np.ndarray, order: int
                     ) -> tuple[dict, int, np.ndarray, np.ndarray, np.ndarray]:
    """osd_decode's steps, each timed: (seconds per phase, tie frames,
    frames at each effective order, codewords, metrics)."""
    secs = dict.fromkeys(PHASES, 0.0)
    t0 = time.perf_counter()
    mag = np.abs(llr)
    ranking = refdec._ranking(mag)
    t1 = time.perf_counter()
    cols, info, basis = refdec._reduce_on_ranking(code.g, ranking, llr < 0)
    t2 = time.perf_counter()
    cw = refdec._encode(cols, info)
    metric = refdec.correlation_metric(cw, llr)
    weights = refdec._effective_orders(llr, mag, metric, basis, order)
    t3 = time.perf_counter()
    secs["rank"], secs["eliminate"] = t1 - t0, t2 - t1
    secs["discrepancy"] = t3 - t2
    ties = 0
    for w in range(1, order + 1):
        pats = refdec._test_patterns(code.k, w)
        frames = np.flatnonzero(weights == w)
        for s in range(0, len(frames), refdec._SLICE_FRAMES):
            sl = frames[s:s + refdec._SLICE_FRAMES]
            t0 = time.perf_counter()
            part = llr[sl], cols[sl]
            scores = refdec._osd_scores(code, *part, cw[sl], w)
            t1 = time.perf_counter()
            cw[sl], metric[sl] = refdec._osd_best(*part, info[sl], pats,
                                                  scores)
            t2 = time.perf_counter()
            secs["score"] += t1 - t0
            secs["re-encode"] += t2 - t1
            near = refdec._shortlist(llr[sl], scores)
            ties += int(np.count_nonzero(near.sum(axis=1) > 1))
    by_order = np.bincount(weights, minlength=order + 1)
    return secs, ties, by_order, cw, metric


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", nargs="+", default=list(RUNS),
                    help="code:order pairs (default: %(default)s)")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--ebn0-db", type=float, default=EBN0_DB)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    harness.set_allocator_policy()
    print(f"{FRAMES}-frame chunk, qpsk max-log, Eb/N0 {args.ebn0_db} dB, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
          f"seed {args.seed}, median of {args.repeats}; ms per chunk")
    print(f"{'code':14s} {'order':>5s} "
          + " ".join(f"{p:>11s}" for p in PHASES) + f" {'total':>8s}"
          + f" {'tie frames':>10s}  frames at order 0/1/...")
    for run in args.runs:
        code_name, _, order = run.partition(":")
        code, llr = chunk(code_name, args.seed, args.ebn0_db)
        order = int(order)
        want_cw, want_metric = refdec.osd_decode(code, llr, order)
        times = []
        for _ in range(args.repeats):
            secs, ties, by_order, cw, metric = decode_in_phases(code, llr,
                                                                order)
            if not (np.array_equal(cw, want_cw)
                    and np.array_equal(metric, want_metric)):
                raise SystemExit(f"{run}: phases disagree with osd_decode")
            times.append([secs[p] for p in PHASES])
        med = 1e3 * np.median(times, axis=0)
        total = 1e3 * np.median(np.sum(times, axis=1))
        print(f"{code_name:14s} {order:5d} "
              + " ".join(f"{m:11.1f}" for m in med) + f" {total:8.1f}"
              + f" {ties:10d}  " + "/".join(map(str, by_order)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
