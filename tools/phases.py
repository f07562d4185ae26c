#!/usr/bin/env python3
"""Time per stage of one real 2048-frame transmit chunk or OSD decode.

`transmit` calls `bicm.transmit_batch` (fresh interleaver) on the chains of
the `pinv-qam16` and `osd2-qpsk` benchmark workloads and an 8-PSK exact
chain; `osd` calls `refdec.osd_decode` on a seeded QPSK max-log chunk, by
default at the `osd2-qpsk` point.  During a call the STAGES functions are
wrappers that time their outermost calls, so a nested stage counts toward
the outer one, and "other" is the time outside them.  Prints the median ms
and minor page faults per call, then each stage's traced peak MiB from one
more call (earlier stages' arrays included; the total is the call's peak),
and for osd the tie frames, whose `_shortlist` holds more than one pattern,
and the frames at each effective order 0/1/... of `_effective_orders`.
One BLAS thread unless OPENBLAS_NUM_THREADS is set; run_point's malloc policy.

    python3 tools/phases.py transmit --runs pinv-qam16 --repeats 21
    python3 tools/phases.py osd --runs polar_64_32:2 --ebn0-db 5
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

from bicmlab import bicm, harness, refdec  # noqa: E402
from bicmlab.gf2code import LinearCode, get_code  # noqa: E402
from bicmlab.modem import NoiseConfig, build_constellation  # noqa: E402

# mode: (owner, attribute, stage) of every stage function, in call order
STAGES = {
    "transmit": [
        (LinearCode, "encode", "encode"), (bicm, "_fresh_perms", "perms"),
        (bicm, "interleave", "interleave"), (bicm, "modulate", "modulate"),
        (bicm, "awgn", "awgn"), (bicm, "demap", "demap"),
        (bicm, "clamp_llrs", "clamp"), (bicm, "deinterleave", "deinterleave"),
    ],
    "osd": [
        (refdec, "_ranking", "rank"),
        (refdec, "_reduce_on_ranking", "eliminate"),
        (refdec, "_encode", "discrepancy"),
        (refdec, "correlation_metric", "discrepancy"),
        (refdec, "_score_tolerance", "discrepancy"),
        (refdec, "_effective_orders", "discrepancy"),
        (refdec, "_osd_scores", "score"), (refdec, "_osd_best", "re-encode"),
        (refdec, "_shortlist", "re-encode"),  # inside _osd_best: read only
    ],
}
# transmit runs: (code, constellation, demap, Eb/N0 dB); osd: code:order
RUNS = {
    "transmit": {"pinv-qam16": ("polar_128_64", "qam16", "exact", 4.0),
                 "osd2-qpsk": ("polar_64_32", "qpsk", "maxlog", 3.0),
                 "psk8-exact": ("polar_128_64", "psk8", "exact", 4.0)},
    "osd": ("polar_64_32:2", "polar_128_64:1", "polar_128_64:2"),
}
FRAMES = 2048


def staged_call(call, targets, mark=time.perf_counter, keep=()):
    """Run call() once with each (owner, attr, stage) of targets wrapped:
    (mark() before it, (stage, mark() before, mark() after) of each outermost
    stage call, mark() after it, {attr: every result} of the attrs in keep)."""
    spans, kept, depth = [], {attr: [] for attr in keep}, 0

    def wrap(fn, attr, stage):
        def staged(*args, **kwargs):
            nonlocal depth
            if depth:
                out = fn(*args, **kwargs)
            else:
                depth, before = 1, mark()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    depth = 0
                spans.append((stage, before, mark()))
            if attr in kept:
                kept[attr].append(out)
            return out
        return staged

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for (owner, attr, fn), (_, _, stage) in zip(saved, targets):
            setattr(owner, attr, wrap(fn, attr, stage))
        start = mark()
        call()
        return start, spans, mark(), kept
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def timed(call, targets, stages) -> tuple[list[float], int]:
    """(s per stage, other and call; minor page faults) of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start, spans, end, _ = staged_call(call, targets)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    secs = dict.fromkeys(stages, 0.0)
    for stage, before, after in spans:
        secs[stage] += after - before
    return [*secs.values(), end - start - sum(secs.values()),
            end - start], faults


def traced(call, targets, stages) -> list[float]:
    """Traced peak MiB of each stage, other and the call, from one call."""
    def traced_peak() -> int:       # the peak since the last mark; resets it
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return peak
    tracemalloc.start()
    try:
        _, spans, end, _ = staged_call(call, targets, traced_peak)
    finally:
        tracemalloc.stop()
    # each mark starts a new peak: one before a stage closes a stretch of
    # other, one after it the stage, and the call's peak is their largest
    peaks, other = dict.fromkeys(stages, 0), end
    for stage, before, after in spans:
        peaks[stage], other = max(peaks[stage], after), max(other, before)
    peaks = [*peaks.values(), other]
    return [p / 2**20 for p in peaks + [max(peaks)]]


def make_call(mode: str, run: str, seed: int, ebn0_db: float):
    """The call of one run, and for osd the tie frames and frames at each
    effective order of an untimed first call, which every mode makes."""
    code_name, const_name, demap_kind, ebn0_db = (
        RUNS[mode][run] if mode == "transmit"
        else (run.split(":")[0], "qpsk", "maxlog", ebn0_db))
    code, const = get_code(code_name), build_constellation(const_name)
    noise = NoiseConfig.from_ebn0_db(ebn0_db, code.rate, const.m)
    call = lambda: bicm.transmit_batch(  # noqa: E731
        code, const, noise, np.random.default_rng(seed), FRAMES,
        demap_kind=demap_kind)
    if mode == "osd":
        llr, order = call().llr, int(run.split(":")[1])
        call = lambda: refdec.osd_decode(code, llr, order)  # noqa: E731
    kept = staged_call(call, STAGES[mode],
                       keep=("_shortlist", "_effective_orders"))[3]
    if mode == "transmit":
        return call, ""
    ties = sum(int(np.count_nonzero(near.sum(axis=1) > 1))
               for near in kept["_shortlist"])
    by_order = np.bincount(kept["_effective_orders"][0], minlength=order + 1)
    return call, f" {ties:10d}  " + "/".join(map(str, by_order))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=STAGES)
    ap.add_argument("--runs", nargs="+", help="transmit: names in RUNS; "
                    "osd: code:order pairs (default: the mode's RUNS)")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ebn0-db", type=float, default=3.0, help="osd only")
    args = ap.parse_args(argv)
    mode, runs = args.mode, args.runs or list(RUNS[args.mode])
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if mode == "transmit" and not set(runs) <= set(RUNS[mode]):
        ap.error(f"transmit runs are {', '.join(RUNS[mode])}")

    harness.set_allocator_policy()
    stages = list(dict.fromkeys(stage for _, _, stage in STAGES[mode]))
    names = stages + ["other", "total"]
    widths = [max(8, len(name)) for name in names]

    def line(label, cells, spec=".2f"):
        return f"{label:15s}" + "".join(f" {c:>{w}{spec}}"
                                         for c, w in zip(cells, widths))

    chain = ("fresh interleaver" if mode == "transmit"
             else f"qpsk max-log, Eb/N0 {args.ebn0_db} dB")
    print(f"{FRAMES}-frame chunk, {chain}, OPENBLAS_NUM_THREADS="
          f"{os.environ['OPENBLAS_NUM_THREADS']}, seed {args.seed}; median "
          f"ms and faults of {args.repeats} calls, traced MiB of one more")
    print(line("run", names, "s") + f" {'faults':>7s}"
          + (" tie frames  frames at order 0/1/..." if mode == "osd" else ""))
    for run in runs:
        call, counts = make_call(mode, run, args.seed, args.ebn0_db)
        secs, faults = zip(*(timed(call, STAGES[mode], stages)
                             for _ in range(args.repeats)))
        print(line(run, 1e3 * np.median(secs, axis=0))
              + f" {np.median(faults):7.0f}" + counts, flush=True)
        print(line("  MiB", traced(call, STAGES[mode], stages))
              + f" {'-':>7s}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
