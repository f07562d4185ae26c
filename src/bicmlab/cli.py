"""Command-line front end: simulate, train, verify-channel, count-params."""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from dataclasses import replace

from . import harness
from .gf2code import builtin_code_names, get_code
from .neural import (
    CheckpointError,
    RnnConfig,
    TransformerConfig,
    approx_params_rnn,
    approx_params_transformer,
    count_params_rnn,
    count_params_transformer,
)


def _openblas(stem: str):
    """OpenBLAS's function `stem` (such as "set_num_threads") in the library
    numpy loaded, or None where no such library or symbol is found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_",
                    f"openblas_{stem}"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return fn
    return None


def _limit_blas_threads(workers: int) -> None:
    """Give BLAS max(1, cores // workers) threads, so that the harness's
    worker threads and BLAS's own do not oversubscribe the cores."""
    fn = _openblas("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(max(1, len(os.sched_getaffinity(0)) // workers))


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        kv = harness.parse_config_text(fh.read())
    cfg = harness.ExperimentConfig(
        **harness.config_kwargs(harness.ExperimentConfig, kv))
    if args.out:
        cfg = replace(cfg, out=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    _limit_blas_threads(cfg.workers)
    records = harness.run_sweep(cfg)
    print(harness.CSV_HEADER)
    for r in records:
        ml = "" if r.ml_bound_ber is None else f"{r.ml_bound_ber:.4g}"
        print(f"{r.ebn0_db:g},{r.frames},{r.bit_errors},{r.frame_errors},"
              f"{r.ber:.4g},{r.fer:.4g},{ml},{r.seconds:.1f}")
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_train(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            kv = harness.parse_config_text(fh.read())
        overrides = harness.config_kwargs(harness.TrainConfig, kv)
    for key in ("code", "steps", "seed", "out", "curve"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    if args.preset:
        cfg = harness.train_config_from_preset(args.preset, **overrides)
    else:
        cfg = harness.TrainConfig(**overrides)
    path = harness.train_estimator(cfg, verbose=True)
    print(f"wrote {path}")
    return 0


def _cmd_verify_channel(args) -> int:
    # the 0.02 correlation bound needs ~6e4+ frames before null noise on the
    # max over ~2000 position pairs stays clear of it
    bits = 1_000_000 if not args.quick else 200_000
    frames = 150_000 if not args.quick else 60_000
    rows = harness.verify_channel(seed=args.seed, symmetry_bits=bits,
                                  corr_frames=frames)
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.value:10.4f}  {r.bound:>8}  {status}")
        failures += not r.passed
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 1 if failures else 0


def _cmd_count_params(args) -> int:
    code = get_code(args.code)
    n, k = code.n, code.k
    if args.arch == "rnn":
        cfg = RnnConfig.for_code(n, k, alpha=args.alpha,
                                 time_steps=args.time_steps, depth=args.depth)
        exact, approx = count_params_rnn(cfg), approx_params_rnn(cfg)
    else:
        cfg = TransformerConfig.for_code(n, k, embed_dim=args.embed_dim,
                                         heads=args.heads,
                                         encoders=args.encoders)
        exact = count_params_transformer(cfg)
        approx = approx_params_transformer(cfg)
    rel = abs(exact - approx) / exact
    print(f"code ({n},{k}), input r = {2 * n - k}")
    print(f"exact weights:       {exact}")
    print(f"approximate weights: {approx}  (relative error {100 * rel:.3f}%)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bicmlab",
        description="BICM Monte-Carlo laboratory with syndrome-based "
                    "neural decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a BER/FER sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a bit-flip estimator")
    p.add_argument("--preset", choices=sorted(harness.TRAIN_PRESETS), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--code", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--curve", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("verify-channel",
                       help="run the binary-channel model test battery")
    p.add_argument("--quick", action="store_true",
                   help="reduced sample sizes (looser statistics)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_channel)

    p = sub.add_parser("count-params",
                       help="exact and approximate estimator weight counts")
    p.add_argument("--arch", choices=("rnn", "transformer"), required=True)
    p.add_argument("--code", required=True,
                   help=f"built-in ({', '.join(builtin_code_names())}) "
                        f"or alist path")
    p.add_argument("--alpha", type=int, default=5)
    p.add_argument("--time-steps", type=int, default=5)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--embed-dim", type=int, default=128)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--encoders", type=int, default=10)
    p.set_defaults(func=_cmd_count_params)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CheckpointError) as exc:
        # bad config values, keys, codes, checkpoints and files: a usage error
        parser.exit(2, f"bicmlab: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
