"""Command-line front end: simulate, train, verify-channel, count-params."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .gf2code import get_code
from .neural import CheckpointError


def _config(args):
    """The command's config: its preset, then the --config file's keys, then
    the KEY=VALUE arguments, each overriding the one before.  Both kinds of
    keys go through the config-file parser, so they are typed and checked
    alike."""
    kv = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            kv = harness.parse_config_text(fh.read())
    for arg in args.settings:
        if "=" not in arg:
            raise ValueError(f"expected KEY=VALUE, got {arg!r}")
        kv.update(harness.parse_config_text(arg))
    kw = harness.config_kwargs(args.cls, kv)
    if args.preset:
        return harness.train_config_from_preset(args.preset, **kw)
    return args.cls(**kw)


def _cmd_simulate(args) -> int:
    cfg = _config(args)
    print("\n".join(harness.csv_rows(harness.run_sweep(cfg))))
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config(args)
    path = harness.train_estimator(cfg, verbose=True)
    print(f"wrote {path}")
    return 0


def _cmd_verify_channel(args) -> int:
    # the 0.02 correlation bound needs ~6e4+ frames before null noise on the
    # max over ~2000 position pairs stays clear of it
    sizes = (dict(symmetry_bits=200_000, corr_frames=60_000) if args.quick
             else {})
    rows = harness.verify_channel(seed=args.seed, **sizes)
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.value:10.4f}  {r.bound:>8}  {status}")
        failures += not r.passed
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 1 if failures else 0


def _cmd_count_params(args) -> int:
    cfg = _config(args)
    code = get_code(cfg.code)
    model = cfg.model_config(code)
    exact, approx = model.weights(), model.approx_weights()
    rel = abs(exact - approx) / exact
    print(f"code ({code.n},{code.k}), input r = {model.r}")
    print(f"exact weights:       {exact}")
    print(f"approximate weights: {approx}  (relative error {100 * rel:.3f}%)")
    return 0


def _add_config_command(sub, name: str, help: str, func, cls) -> None:
    """Subcommand `name`, which runs func on the cls that _config reads."""
    p = sub.add_parser(name, help=help)
    if cls is harness.TrainConfig:
        p.add_argument("--preset", choices=sorted(harness.TRAIN_PRESETS))
    p.add_argument("--config", metavar="FILE",
                   help="a file of 'key = value' lines")
    p.add_argument("settings", nargs="*", metavar="KEY=VALUE",
                   help="config keys, which override the file's")
    p.set_defaults(func=func, cls=cls, preset=None)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicmlab",
        description="BICM Monte-Carlo laboratory with syndrome-based "
                    "neural decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "simulate", "run a BER/FER sweep",
                        _cmd_simulate, harness.ExperimentConfig)
    _add_config_command(sub, "train", "train a bit-flip estimator",
                        _cmd_train, harness.TrainConfig)
    _add_config_command(sub, "count-params",
                        "exact and approximate weight counts of the "
                        "estimator that train builds",
                        _cmd_count_params, harness.TrainConfig)

    p = sub.add_parser("verify-channel",
                       help="run the binary-channel model test battery")
    p.add_argument("--quick", action="store_true",
                   help="reduced sample sizes (looser statistics)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_channel)
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """parser's arguments, with KEY=VALUE arguments allowed before, between
    and after the options: argparse takes the first run of them as settings
    and gives the later ones back, in order, to be appended."""
    args, extra = parser.parse_known_args(argv)
    unknown = [a for a in extra
               if a.startswith("-") or not hasattr(args, "settings")]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if extra:
        args.settings += extra
    return args


def main(argv=None) -> int:
    parser = _parser()
    args = _parse_args(parser, argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CheckpointError) as exc:
        # bad config values, keys, codes, checkpoints and files: a usage error
        parser.exit(2, f"bicmlab: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
