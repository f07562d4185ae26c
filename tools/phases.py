#!/usr/bin/env python3
"""Time per stage of one real 2048-frame transmit, OSD decode or predict.

`transmit` calls `bicm.transmit_batch` (fresh interleaver) on the chains of
the `pinv-qam16` and `osd2-qpsk` workloads and an 8-PSK exact chain, `osd`
`refdec.osd_decode` on a seeded QPSK max-log chunk (default: the `osd2-qpsk`
point), `predict` a preset network (weights from --seed) on normal statistics
(from --seed + 1).  A STAGES function times its outermost calls: a nested
stage counts toward the outer one (attention holds its q/k/v/o projections),
and "other" is the rest.  Prints the median ms and minor page faults per call,
each stage's traced peak MiB in one more call (earlier stages' arrays count),
for osd the tie frames (a `_shortlist` of more than one pattern) and frames at
each effective order 0/1/..., for predict r, each preset's least-squares
exponent of time against r and the peak RSS.  One BLAS thread unless
OPENBLAS_NUM_THREADS is set; run_point's malloc policy.

    python3 tools/phases.py transmit --runs pinv-qam16 --repeats 21
    python3 tools/phases.py osd --runs polar_64_32:2 --ebn0-db 5
    python3 tools/phases.py predict --runs desk-transformer:polar_64_32
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

from bicmlab import bicm, gf2code, harness, neural, refdec  # noqa: E402
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
    "predict": [(neural.attention.MultiHeadSelfAttention, "forward",
                 "attention"), (neural.LayerNorm, "forward", "layernorm"),
                (neural.Dense, "forward", "dense"),
                (neural.GRULayer, "forward", "gru")],
}
RUNS = {  # the default runs; transmit: (code, constellation, demap, Eb/N0 dB)
    "transmit": {"pinv-qam16": ("polar_128_64", "qam16", "exact", 4.0),
                 "osd2-qpsk": ("polar_64_32", "qpsk", "maxlog", 3.0),
                 "psk8-exact": ("polar_128_64", "psk8", "exact", 4.0)},
    "osd": ("polar_64_32:2", "polar_128_64:1", "polar_128_64:2"),
    "predict": tuple(f"{preset}:polar_{n}_{n // 2}"
                     for preset in ("desk-rnn", "desk-transformer")
                     for n in (16, 32, 64, 128)),
}
# mode: (header, format) of the columns after faults
COUNTS = {"transmit": ("", ""), "predict": ("    r", " {:4d}"),
          "osd": (" tie frames  frames at order 0/1/...", " {:10d}  {}")}
FRAMES = harness.CHUNK_FRAMES


def staged_call(call, targets, span=lambda *_: None, mark=time.perf_counter,
                keep=()):
    """Run call() once with each (owner, attr, stage) of targets wrapped to
    call span(stage, mark() before, mark() after) after its outermost calls
    (no list: 28672 Dense spans of an r = 192 predict would trace 3.3 MiB):
    (mark() before call, mark() after it, {attr: every result} of keep's)."""
    kept, depth = {attr: [] for attr in keep}, 0

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
                span(stage, before, mark())
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
        return start, mark(), kept
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def timed(call, targets, stages) -> tuple[list[float], int]:
    """(s per stage, other and call; minor page faults) of one call."""
    def span(stage, before, after):
        secs[stage] += after - before
    secs = dict.fromkeys(stages, 0.0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start, end, _ = staged_call(call, targets, span)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return [*secs.values(), end - start - sum(secs.values()),
            end - start], faults


def traced(call, targets, stages) -> list[float]:
    """Traced peak MiB of each stage, other and the call, from one call."""
    # each mark starts a new peak: one before a stage closes a stretch of
    # other, one after it the stage, and the call's peak is their largest
    def span(stage, before, after):
        peaks[stage] = max(peaks[stage], after)
        peaks["other"] = max(peaks["other"], before)

    def traced_peak() -> int:       # the peak since the last mark; resets it
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return peak
    peaks = dict.fromkeys(stages + ["other"], 0)
    tracemalloc.start()
    try:
        end = staged_call(call, targets, span, traced_peak)[1]
    finally:
        tracemalloc.stop()
    peaks["other"] = max(peaks["other"], end)
    return [p / 2**20 for p in [*peaks.values(), max(peaks.values())]]


def refusal(mode: str, run: str, ebn0_db: float,
            codes=gf2code.builtin_code_names()) -> str:
    """Why run is not of mode's form, or why the package refuses its osd
    order or Eb/N0 ebn0_db, or "" if neither."""
    first, _, second = run.partition(":")
    ok, form = {
        "transmit": (run in RUNS[mode], "one of " + ", ".join(RUNS[mode])),
        "osd": (first in codes and second.isdecimal()
                and int(second) <= get_code(first).k,
                "code:order, a built-in code and an order in [0, k]"),
        "predict": (first in harness.TRAIN_PRESETS and second in codes,
                    "preset:code, a train preset and a built-in code"),
    }[mode]
    if not ok:
        return f"{mode} run {run!r} is not {form}"
    if mode == "osd":
        code = get_code(first)
        try:
            refdec._test_patterns(code.k, int(second))
            NoiseConfig.from_ebn0_db(ebn0_db, code.rate,
                                     build_constellation("qpsk").m)
        except ValueError as exc:
            return f"osd run {run!r}: {exc}"
    return ""


def make_call(mode: str, run: str, seed: int, ebn0_db: float):
    """The call of one run and its COUNTS: r, or the tie frames and frames
    at each effective order of the untimed first call that every run makes."""
    if mode == "predict":
        preset, code_name = run.split(":")
        cfg = harness.train_config_from_preset(preset, code=code_name)
        net = neural.build_estimator(cfg.model_config(get_code(code_name)),
                                     np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1).normal(size=(FRAMES, net.cfg.r))
        call = lambda: net.predict(x)  # noqa: E731
    else:
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
                       keep=("_shortlist", "_effective_orders"))[2]
    if mode != "osd":
        return call, (net.cfg.r,) if mode == "predict" else ()
    ties = sum(int(np.count_nonzero(near.sum(axis=1) > 1))
               for near in kept["_shortlist"])
    by_order = np.bincount(kept["_effective_orders"][0], minlength=order + 1)
    return call, (ties, "/".join(map(str, by_order)))


def parse_args(argv=None) -> argparse.Namespace:
    """The command line, refused in one line with exit status 2 unless
    every run is of its mode's form and refdec and NoiseConfig accept each
    osd run's order and Eb/N0; --ebn0-db defaults to 3 dB."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=STAGES)
    ap.add_argument("--runs", nargs="+", help="transmit: names in RUNS; osd: "
                    "code:order; predict: preset:code (default: RUNS)")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ebn0-db", type=float, help="osd only (default 3)")
    args = ap.parse_args(argv)
    mode = args.mode
    runs = args.runs = args.runs or list(RUNS[mode])
    ebn0_db = 3.0 if args.ebn0_db is None else args.ebn0_db
    for why in filter(None, [
            args.repeats < 1 and "--repeats must be >= 1",
            args.ebn0_db is not None and mode != "osd"
            and f"--ebn0-db is for osd runs only, not {mode}",
            *(refusal(mode, run, ebn0_db) for run in runs)]):
        ap.error(why)
    args.ebn0_db = ebn0_db
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    mode, runs, ebn0_db = args.mode, args.runs, args.ebn0_db
    harness.set_allocator_policy()
    stages = list(dict.fromkeys(stage for _, _, stage in STAGES[mode]))
    names = stages + ["other", "total"]
    widths = [max(8, len(name)) for name in names]

    def line(label, cells, spec=".2f"):
        return f"{label:{max(15, *map(len, runs))}s}" + "".join(
            f" {c:>{w}{spec}}" for c, w in zip(cells, widths))

    chain = {"transmit": "fresh interleaver", "predict": "untrained network",
             "osd": f"qpsk max-log, Eb/N0 {ebn0_db} dB"}[mode]
    print(f"{FRAMES}-frame chunk, {chain}, OPENBLAS_NUM_THREADS="
          f"{os.environ['OPENBLAS_NUM_THREADS']}, seed {args.seed}; median "
          f"ms and faults of {args.repeats} calls, traced MiB of one more")
    print(line("run", names, "s") + f" {'faults':>7s}" + COUNTS[mode][0])
    fits = {}   # preset: (r, median total ms) of each of its runs
    for run in runs:
        call, counts = make_call(mode, run, args.seed, ebn0_db)
        secs, faults = zip(*(timed(call, STAGES[mode], stages)
                             for _ in range(args.repeats)))
        ms = 1e3 * np.median(secs, axis=0)
        print(line(run, ms) + f" {np.median(faults):7.0f}"
              + COUNTS[mode][1].format(*counts), flush=True)
        print(line("  MiB", traced(call, STAGES[mode], stages))
              + f" {'-':>7s}", flush=True)
        if mode == "predict":
            fits.setdefault(run.split(":")[0], []).append((counts[0], ms[-1]))
    for preset, r_ms in fits.items():
        if len(r_ms) > 1:
            print(f"{preset} time ~ r^{np.polyfit(*np.log(r_ms).T, 1)[0]:.2f}")
    if mode == "predict":
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"process peak RSS {rss_mib:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
