#!/usr/bin/env python3
"""Time per phase of a 2048-frame OSD chunk.

For polar_64_32 at order 2 and polar_128_64 at orders 1 and 2, simulates a
seeded 2048-frame chunk (QPSK, max-log demap, Eb/N0 3 dB: the point of the
`osd2-qpsk` benchmark workload) and decodes it REPEATS times through the
phases of `refdec.osd_decode`, timing each:

    sort        the stable reliability argsort
    eliminate   `_reduce_on_ranking`: the gather of the generator's column
                words, the lock-step Gauss-Jordan with the info words, and
                the un-permute of the reduced columns to transmission order
    score       `_osd_scores` over all slices: c0 by popcount parity, d and
                the float32 Gram matrix of R unpacked from the column words
    re-encode   `_osd_best` over all slices: pick, re-encode by popcount
                parity, exact rescore

and prints the median ms per chunk of each phase and of their sum, and the
tie frames: the frames of the chunk whose float32 shortlist holds more than
one pattern, so that `_osd_best` re-encodes and rescores them one by one in
its per-frame `_lex_best` loop.  Every pass is checked against one
`osd_decode` call of the same chunk, so the phases are the decoder's own.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.  The allocator
runs under the policy `harness.run_point` sets
(`harness.set_allocator_policy`), so the times are those of a chunk in a
sweep.

    python3 tools/osd_phases.py
    python3 tools/osd_phases.py --runs polar_64_32:2 --repeats 9
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
PHASES = ("sort", "eliminate", "score", "re-encode")
FRAMES = 2048
EBN0_DB = 3.0
REPEATS = 5
SEED = 0


def chunk(code_name: str, seed: int) -> tuple[object, np.ndarray]:
    """The code and the LLRs of one seeded 2048-frame QPSK max-log chunk."""
    code = get_code(code_name)
    const = build_constellation("qpsk")
    noise = NoiseConfig.from_ebn0_db(EBN0_DB, code.rate, const.m)
    fb = transmit_batch(code, const, noise, np.random.default_rng(seed),
                        FRAMES, demap_kind="maxlog")
    return code, fb.llr


def decode_in_phases(code, llr: np.ndarray, order: int
                     ) -> tuple[dict, int, np.ndarray, np.ndarray]:
    """osd_decode's steps, each timed: (seconds per phase, tie frames,
    codewords, metrics)."""
    secs = dict.fromkeys(PHASES, 0.0)
    pats = refdec._test_patterns(code.k, order)
    t0 = time.perf_counter()
    ranking = np.argsort(-np.abs(llr), axis=1, kind="stable")
    t1 = time.perf_counter()
    cols, info = refdec._reduce_on_ranking(code.g, ranking, llr < 0)
    t2 = time.perf_counter()
    secs["sort"], secs["eliminate"] = t1 - t0, t2 - t1
    cw = np.empty(llr.shape, dtype=np.uint8)
    metric = np.empty(len(llr))
    ties = 0
    for s in range(0, len(llr), refdec._SLICE_FRAMES):
        sl = slice(s, s + refdec._SLICE_FRAMES)
        t0 = time.perf_counter()
        part = llr[sl], cols[sl], info[sl]
        scores = refdec._osd_scores(code, *part, order)
        t1 = time.perf_counter()
        cw[sl], metric[sl] = refdec._osd_best(*part, pats, scores)
        t2 = time.perf_counter()
        secs["score"] += t1 - t0
        secs["re-encode"] += t2 - t1
        near = refdec._shortlist(llr[sl], scores)
        ties += int(np.count_nonzero(near.sum(axis=1) > 1))
    return secs, ties, cw, metric


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", nargs="+", default=list(RUNS),
                    help="code:order pairs (default: %(default)s)")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    ap.add_argument("--seed", type=int, default=SEED)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    harness.set_allocator_policy()
    print(f"{FRAMES}-frame chunk, qpsk max-log, Eb/N0 {EBN0_DB} dB, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
          f"seed {args.seed}, median of {args.repeats}; ms per chunk")
    print(f"{'code':14s} {'order':>5s} "
          + " ".join(f"{p:>10s}" for p in PHASES) + f" {'total':>8s}"
          + f" {'tie frames':>10s}")
    for run in args.runs:
        code_name, _, order = run.partition(":")
        code, llr = chunk(code_name, args.seed)
        order = int(order)
        want_cw, want_metric = refdec.osd_decode(code, llr, order)
        times = []
        for _ in range(args.repeats):
            secs, ties, cw, metric = decode_in_phases(code, llr, order)
            if not (np.array_equal(cw, want_cw)
                    and np.array_equal(metric, want_metric)):
                raise SystemExit(f"{run}: phases disagree with osd_decode")
            times.append([secs[p] for p in PHASES])
        med = 1e3 * np.median(times, axis=0)
        total = 1e3 * np.median(np.sum(times, axis=1))
        print(f"{code_name:14s} {order:5d} "
              + " ".join(f"{m:10.1f}" for m in med) + f" {total:8.1f}"
              + f" {ties:10d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
