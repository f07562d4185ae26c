#!/usr/bin/env python3
"""Time per stage of a 2048-frame BICM transmit chunk.

For the chains of the `pinv-qam16` and `osd2-qpsk` benchmark workloads and
an 8-PSK exact chain, simulates a seeded 2048-frame chunk REPEATS times
through the stages of `bicm.transmit_batch` (fresh interleaver), timing
each:

    draw          the uniform messages
    encode        `LinearCode.encode`
    keys+argsort  the interleaver keys and their argsort
    interleave    `bicm.interleave`, plus the zero padding when m does not
                  divide n
    modulate      `modem.modulate`
    awgn          `modem.awgn`
    demap         `modem.demap`
    clamp         `modem.clamp_llrs`, in place, and the pad LLRs stripped
    deinterleave  `bicm.deinterleave`

and prints the median ms per chunk of each stage and of their sum, and the
median minor page faults per chunk.  A second row, from one more untimed
pass under tracemalloc, gives each stage's traced peak in MiB: the most
memory the chain held while the stage ran, the arrays of earlier stages
still alive included; its total is the chunk's peak.  The stages let go of
their inputs where `transmit_batch` does.  Every pass is checked field by
field against one `transmit_batch` call from the same seed, so the stages
are the chain's own.  The allocator runs under the policy
`harness.run_point` sets (`harness.set_allocator_policy`), so the faults
are those of a chunk in a sweep.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.

    python3 tools/transmit_phases.py
    python3 tools/transmit_phases.py --runs pinv-qam16 --repeats 21
"""

import argparse
import dataclasses
import os
import pathlib
import resource
import sys
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bicmlab import bicm, harness  # noqa: E402
from bicmlab.gf2code import get_code  # noqa: E402
from bicmlab.modem import (  # noqa: E402
    NoiseConfig,
    awgn,
    build_constellation,
    clamp_llrs,
    demap,
    modulate,
)

# name: (code, constellation, demap, Eb/N0 dB); the first two are the
# benchmark workloads' points
RUNS = {
    "pinv-qam16": ("polar_128_64", "qam16", "exact", 4.0),
    "osd2-qpsk": ("polar_64_32", "qpsk", "maxlog", 3.0),
    "psk8-exact": ("polar_128_64", "psk8", "exact", 4.0),
}
STAGES = ("draw", "encode", "keys+argsort", "interleave", "modulate", "awgn",
          "demap", "clamp", "deinterleave")
FRAMES = 2048
REPEATS = 9
SEED = 0
MIB = 1 << 20


def traced_peak() -> int:
    """Bytes at the traced peak since the last call; starts a new peak."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return peak


def transmit_in_stages(code, const, noise, rng, demap_kind: str,
                       mark=time.perf_counter
                       ) -> tuple[list[float], bicm.FrameBatch]:
    """transmit_batch's steps with a fresh interleaver: (mark() before the
    first stage and after each, the frame batch)."""
    n, k = code.n, code.k
    n_pad = bicm._padded_length(n, const.m)
    t = [mark()]
    u = rng.integers(0, 2, size=(FRAMES, k), dtype=np.uint8)
    t.append(mark())
    c = code.encode(u)
    t.append(mark())
    perms = np.argsort(rng.random((FRAMES, n)), axis=1)
    t.append(mark())
    tx_bits = bicm.interleave(c, perms)
    if n_pad != n:
        zeros = np.zeros((FRAMES, n_pad - n), dtype=np.uint8)
        tx_bits = np.concatenate([tx_bits, zeros], axis=1)
    t.append(mark())
    x = modulate(const, tx_bits)
    del tx_bits
    t.append(mark())
    y = awgn(x, noise, rng)
    del x
    t.append(mark())
    llr = demap(const, y, noise, kind=demap_kind)
    del y
    t.append(mark())
    llr = clamp_llrs(llr)[:, :n]
    t.append(mark())
    llr = bicm.deinterleave(llr, perms)
    t.append(mark())
    fb = bicm.FrameBatch(u=u, c=c, perms=perms, llr=llr)
    return t, fb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", nargs="+", default=list(RUNS), choices=RUNS,
                    help="chains to time (default: all)")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    ap.add_argument("--seed", type=int, default=SEED)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    harness.set_allocator_policy()
    print(f"{FRAMES}-frame chunk, fresh interleaver, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
          f"seed {args.seed}, median of {args.repeats}; ms and minor "
          f"faults per chunk, then the traced peak MiB of one untimed pass")
    print(f"{'run':11s} " + " ".join(f"{s:>8.8s}" for s in STAGES)
          + f" {'total':>7s} {'faults':>7s}")
    for run in args.runs:
        code_name, const_name, demap_kind, ebn0_db = RUNS[run]
        code = get_code(code_name)
        const = build_constellation(const_name)
        noise = NoiseConfig.from_ebn0_db(ebn0_db, code.rate, const.m)
        want = bicm.transmit_batch(code, const, noise,
                                   np.random.default_rng(args.seed), FRAMES,
                                   demap_kind=demap_kind)

        def check(fb):
            for f in dataclasses.fields(fb):
                if not np.array_equal(getattr(fb, f.name),
                                      getattr(want, f.name)):
                    raise SystemExit(f"{run}: {f.name} disagrees with "
                                     f"transmit_batch")

        times, faults = [], []
        for _ in range(args.repeats):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            marks, fb = transmit_in_stages(code, const, noise,
                                           np.random.default_rng(args.seed),
                                           demap_kind)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
            check(fb)
            times.append(np.diff(marks))
        med = 1e3 * np.median(times, axis=0)
        total = 1e3 * np.median(np.sum(times, axis=1))
        print(f"{run:11s} " + " ".join(f"{m:8.2f}" for m in med)
              + f" {total:7.1f} {np.median(faults):7.0f}", flush=True)

        rng = np.random.default_rng(args.seed)
        tracemalloc.start()
        try:
            marks, fb = transmit_in_stages(code, const, noise, rng,
                                           demap_kind, traced_peak)
        finally:
            tracemalloc.stop()
        check(fb)
        peaks = np.array(marks[1:]) / MIB
        print(f"{'  MiB':11s} " + " ".join(f"{p:8.2f}" for p in peaks)
              + f" {peaks.max():7.2f} {'-':>7s}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
