#!/usr/bin/env python3
"""Predict time and memory of the desk estimators against the code size.

For the desk-rnn and desk-transformer presets on the built-in polar codes,
builds the network from a fixed weight seed, predicts a seeded 2048-frame
batch of random statistics, and prints per (preset, code): the input length
r, the median time per frame of three timed predicts, and the
tracemalloc peak of one more 2048-frame predict (the arrays the predict
allocates, beyond its input).  Per preset it then prints the least-squares
exponent of time against r (`quadratic_fit_exponent`).  The last line is the
process's peak RSS; run one preset and one code for the RSS of that predict
alone.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set.  The allocator
runs under the policy `harness.run_point` sets
(`harness.set_allocator_policy`), so the times are those of a predict in a
sweep.

    python3 tools/predict_scaling.py
    python3 tools/predict_scaling.py --presets desk-transformer --codes polar_64_32
"""

import argparse
import os
import pathlib
import resource
import sys
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bicmlab.gf2code import get_code  # noqa: E402
from bicmlab.harness import (  # noqa: E402
    set_allocator_policy, train_config_from_preset)
from bicmlab.neural import build_estimator  # noqa: E402

PRESETS = ("desk-rnn", "desk-transformer")
CODES = ("polar_16_8", "polar_32_16", "polar_64_32", "polar_128_64")
FRAMES = 2048
REPEATS = 3
SEED = 0


def quadratic_fit_exponent(rs, values) -> float:
    """Least-squares slope of log(values) against log(r)."""
    x = np.log(np.asarray(rs, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def build(preset: str, code_name: str, seed: int):
    cfg = train_config_from_preset(preset, code=code_name)
    return build_estimator(cfg.model_config(get_code(code_name)),
                           np.random.default_rng(seed))


def measure(net, stats: np.ndarray) -> tuple[float, int]:
    """(median seconds of REPEATS predicts after a warm-up, tracemalloc
    peak bytes of one more)."""
    net.predict(stats)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        net.predict(stats)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net.predict(stats)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return float(np.median(times)), peak


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--presets", nargs="+", default=list(PRESETS),
                    choices=PRESETS)
    ap.add_argument("--codes", nargs="+", default=list(CODES), choices=CODES)
    args = ap.parse_args(argv)

    set_allocator_policy()
    print(f"{FRAMES}-frame predict, OPENBLAS_NUM_THREADS="
          f"{os.environ['OPENBLAS_NUM_THREADS']}, seed {SEED}")
    print(f"{'preset':18s} {'code':14s} {'r':>4s} {'ms/frame':>9s} "
          f"{'ms/predict':>11s} {'peak MB':>8s}")
    for preset in args.presets:
        rs, times = [], []
        for code_name in args.codes:
            net = build(preset, code_name, SEED)
            r = net.cfg.r
            stats = np.random.default_rng(SEED + 1).normal(
                size=(FRAMES, r))
            secs, peak = measure(net, stats)
            rs.append(r)
            times.append(secs)
            print(f"{preset:18s} {code_name:14s} {r:4d} "
                  f"{1e3 * secs / FRAMES:9.4f} {1e3 * secs:11.1f} "
                  f"{peak / 2**20:8.1f}", flush=True)
        if len(rs) > 1:
            expo = quadratic_fit_exponent(rs, times)
            print(f"{preset:18s} time ~ r^{expo:.2f}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"process peak RSS {rss_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
