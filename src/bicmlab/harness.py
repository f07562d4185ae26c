"""Seeded Monte-Carlo BER/FER experiment runner and estimator training.

Reproducibility contract: a (config, master seed) pair fully determines every
count.  Frames are simulated in fixed-size chunks whose RNG streams derive
from (master seed, grid point index, chunk index), and each chunk is decoded
in DECODE_BLOCK_FRAMES blocks.  Chunks, blocks and a training step's
gradient shards are all units of units.run_in_order: the calling thread runs
the next unit to fold, up to one pool thread per other core runs the units
queued after it, and results are folded in index order.  No unit's size
depends on the worker count, and a chunk's counts are integer sums over its
blocks, so the totals are identical for any worker count, whichever thread
ran which unit.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from . import refdec
from .bicm import (
    FrameBatch,
    bsc_symmetry_ztest,
    channel_statistics,
    draw_interleaver,
    predicted_crossover,
    transmit_batch,
)
from .gf2code import LinearCode, get_code
from .modem import Constellation, NoiseConfig, build_constellation
from .neural import (
    ARCHS,
    TRAIN_SHARD_FRAMES,
    Adam,
    build_estimator,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .neural.checkpoint import _write_atomic
from .refdec import ErrorCounter
from .sbnd import decode_batch, hard_messages, make_training_batch
# statistic_batch stays importable from here: bench/spans.py traces it by
# this name
from .sbnd import statistic_batch  # noqa: F401
from .units import run_in_order, thread_pool

__all__ = [
    "StopRule",
    "ExperimentConfig",
    "BerRecord",
    "parse_config_text",
    "config_kwargs",
    "run_point",
    "run_sweep",
    "write_csv",
    "csv_rows",
    "TrainConfig",
    "TRAIN_PRESETS",
    "train_estimator",
    "train_workers",
    "available_cores",
    "NeuralEstimator",
    "make_decoder",
    "verify_channel",
    "set_allocator_policy",
    "CHUNK_FRAMES",
    "DECODE_BLOCK_FRAMES",
]

CHUNK_FRAMES = 2048
# Frames per decode_chunk call: a unit that any worker takes, of a size never
# derived from the worker count, so the same computation at any pool size.
DECODE_BLOCK_FRAMES = 1024

# glibc mallopt parameters (malloc.h) and the values set_allocator_policy
# sets.  One arena holds one working set for all workers.  The mmap
# threshold sits above the largest per-chunk array (2048 x 128 float64 is
# 2 MiB), so chunk arrays come from the heap; the trim threshold sits above
# two workers' chunk working sets, so a freed chunk stays mapped for the
# next one.
# Setting both thresholds also turns off glibc's dynamic mmap threshold,
# which would otherwise stay at its 128 KiB start once the trim threshold
# is set.
_ALLOCATOR_POLICY = (
    (-8, 1),            # M_ARENA_MAX
    (-3, 4 << 20),      # M_MMAP_THRESHOLD
    (-1, 32 << 20),     # M_TRIM_THRESHOLD
)

_DEMAPPERS = ("exact", "maxlog")
# the experiment keys that only one decoder reads
_DECODER_KEYS = {"osd_order": "osd", "checkpoint": "sbnd"}
_COMMENT = re.compile(r"(?:^|\s)#")


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choose from "
                         f"{', '.join(choices)}")


def _check_at_least(cfg, low: int, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_unread(cfg, keys: list[str], reader: str) -> None:
    """Refuse a key that reader ignores set off its default: no setting may
    go silently unused."""
    for key in keys:
        value = getattr(cfg, key)
        if value != cfg.__dataclass_fields__[key].default:
            raise ValueError(f"{key} = {value} is not read by {reader}")


def _check_finite(name: str, *values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class StopRule:
    """Stop a grid point after enough errors, or at the frame cap."""

    min_frame_errors: int = 100
    min_bit_errors: int = 0
    max_frames: int = 10_000_000

    def __post_init__(self):
        if self.max_frames < 1:
            raise ValueError("max_frames must be positive")
        if self.min_frame_errors < 0 or self.min_bit_errors < 0:
            raise ValueError("error targets must be non-negative")

    def satisfied(self, total: ErrorCounter) -> bool:
        """Whether the point's folded counts meet the rule; a zero error
        target never fires."""
        return (total.frames >= self.max_frames
                or 0 < self.min_frame_errors <= total.frame_errors
                or 0 < self.min_bit_errors <= total.bit_errors)


@dataclass(frozen=True)
class ExperimentConfig:
    code: str = "hamming_7_4"
    constellation: str = "bpsk"
    decoder: str = "hard-pinv"          # a key of _DECODERS
    osd_order: int = 2                   # for the osd decoder
    checkpoint: str = ""                 # for the sbnd decoder
    ebn0_db: tuple[float, ...] = (2.0, 4.0, 6.0)
    demap: str = "exact"                 # exact | maxlog
    interleaver: str = "fresh"           # fresh | pinned
    interleaver_seed: int = 0
    stop: StopRule = field(default_factory=StopRule)
    seed: int = 0
    workers: int = 1
    out: str = ""

    def __post_init__(self):
        if not self.ebn0_db:
            raise ValueError("Eb/N0 grid is empty")
        _check_finite("ebn0_db", *self.ebn0_db)
        _check_choice("decoder", self.decoder, tuple(_DECODERS))
        _check_unread(self, [key for key, decoder in _DECODER_KEYS.items()
                             if decoder != self.decoder],
                      f"decoder {self.decoder!r}")
        build_constellation(self.constellation)
        _check_choice("demap", self.demap, _DEMAPPERS)
        _check_choice("interleaver", self.interleaver, ("fresh", "pinned"))
        if self.decoder == "sbnd" and not self.checkpoint:
            raise ValueError("sbnd decoder needs a checkpoint path")
        _check_at_least(self, 0, "seed", "interleaver_seed")
        _check_at_least(self, 1, "workers")
        if self.interleaver == "fresh":
            _check_unread(self, ["interleaver_seed"], "interleaver 'fresh'")

    def decoder_id(self) -> str:
        if self.decoder == "osd":
            return f"osd(order={self.osd_order})"
        if self.decoder == "sbnd":
            return f"sbnd({os.path.basename(self.checkpoint)})"
        return self.decoder


def parse_config_text(text: str) -> dict:
    """Flat 'key = value' lines, each key once.  A '#' at the start of a
    line or after whitespace starts a comment; any other '#' is part of the
    value, as in out=run#3.csv."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (t.strip() for t in line.split("=", 1))
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _typed(key: str, text: str, default):
    """text as the type of default; a value that does not parse names key."""
    try:
        if isinstance(default, tuple):
            return tuple(float(t) for t in text.replace(",", " ").split())
        return type(default)(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: bad {type(default).__name__} "
                         f"value {text!r}") from None


def config_kwargs(cls, kv: dict[str, str]) -> dict:
    """Typed keyword arguments for ExperimentConfig or TrainConfig from the
    string values of parse_config_text.

    Each value is converted to the type of its field's default; the grid
    ebn0_db is a comma or space separated list.  StopRule's fields are flat
    keys of an experiment config.  An unknown key, or a value that does not
    parse, raises a ValueError naming the key.
    """
    defaults = cls()
    known = {f.name for f in fields(cls)} - {"stop"}
    stop_keys = ({f.name for f in fields(StopRule)}
                 if cls is ExperimentConfig else set())
    out: dict = {}
    stop: dict[str, int] = {}
    for key, text in kv.items():
        if key in stop_keys:
            stop[key] = _typed(key, text, getattr(StopRule(), key))
        elif key not in known:
            raise ValueError(f"unknown config key {key!r}")
        else:
            out[key] = _typed(key, text, getattr(defaults, key))
    if stop:
        out["stop"] = StopRule(**stop)
    return out


@dataclass(frozen=True)
class BerRecord:
    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    ml_bound_ber: float | None
    seconds: float


def set_allocator_policy() -> bool:
    """Make glibc keep freed chunk memory mapped, process-wide.

    Without it, glibc trims each worker thread's heap once a chunk's arrays
    are freed, and the next chunk faults the same pages back in.
    _simulate, train_estimator and verify_channel call this before any pool
    thread starts; a thread that already holds an arena of its own keeps
    it.  No numerics change.  Returns whether every setting took; where the
    C library has no mallopt (a libc other than glibc), it does nothing and
    returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1
                for param, value in _ALLOCATOR_POLICY])


@functools.cache
def _openblas(stem: str):
    """OpenBLAS's function `stem` (such as "set_num_threads") in the library
    numpy loaded, or None where no such library or symbol is found; looked
    up once per process."""
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


@contextmanager
def _blas_threads(count: int):
    """Give OpenBLAS `count` threads while the block runs, then put the
    previous count back.  Does nothing where numpy's BLAS is not OpenBLAS."""
    get, set_ = _openblas("get_num_threads"), _openblas("set_num_threads")
    if get is None or set_ is None:
        yield
        return
    set_.argtypes = [ctypes.c_int]
    set_.restype = None
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


# ---------------------------------------------------------------------------
# decoders operating on simulated chunks
# ---------------------------------------------------------------------------

class HardPinvDecoder:
    def __init__(self, code: LinearCode, cfg: ExperimentConfig):
        self.code = code

    def decode_chunk(self, fb: FrameBatch) -> ErrorCounter:
        return ErrorCounter.tally(hard_messages(self.code, fb.llr), fb.u)


class MapDecoder:
    def __init__(self, code: LinearCode, cfg: ExperimentConfig):
        self.code = code
        code.codebook()  # prime the cache before workers share it

    def decode_chunk(self, fb: FrameBatch) -> ErrorCounter:
        cw, _ = refdec.map_decode(self.code, fb.llr)
        return ErrorCounter.tally(self.code.p_inv_apply(cw), fb.u)


class OsdDecoder:
    def __init__(self, code: LinearCode, cfg: ExperimentConfig):
        self.code = code
        self.order = cfg.osd_order
        # refuses a bad order, and primes the table before workers share it
        refdec._test_patterns(code.k, self.order)

    def decode_chunk(self, fb: FrameBatch) -> ErrorCounter:
        cw, metric = refdec.osd_decode(self.code, fb.llr, self.order)
        return refdec.ml_bound_update(self.code, fb.c, cw, metric, fb.llr)


class NeuralEstimator:
    """Checkpointed network behind the estimator interface.

    Applies the fixed reliability scale recorded at training time.  The
    network's inference pass keeps no state, so pool threads predict
    concurrently on one instance.
    """

    def __init__(self, net, n: int, input_scale: float = 1.0):
        self.net = net
        self.n = n
        self.input_scale = input_scale

    @classmethod
    def from_checkpoint(cls, path, code: LinearCode) -> "NeuralEstimator":
        """Load a network trained for `code`; its (r, k) must be (2n-k, k)."""
        net, header = load_checkpoint(path)
        got = (net.cfg.r, net.cfg.k)
        want = (2 * code.n - code.k, code.k)
        if got != want:
            raise ValueError(f"checkpoint {path} has (r, k) = {got}; "
                             f"code ({code.n},{code.k}) needs {want}")
        return cls(net, n=code.n, input_scale=header["input_scale"])

    def predict(self, stats: np.ndarray) -> np.ndarray:
        x = np.array(stats, dtype=np.float64)
        x[:, :self.n] *= self.input_scale
        return np.asarray(self.net.predict(x), dtype=np.float64)


class SbndDecoder:
    def __init__(self, code: LinearCode, cfg: ExperimentConfig):
        self.code = code
        self.est = NeuralEstimator.from_checkpoint(cfg.checkpoint, code)

    def decode_chunk(self, fb: FrameBatch) -> ErrorCounter:
        return ErrorCounter.tally(decode_batch(self.code, fb.llr, self.est),
                                  fb.u)


# ExperimentConfig.decoder names a key; each class is built from (code, cfg)
_DECODERS = {"hard-pinv": HardPinvDecoder, "map": MapDecoder,
             "osd": OsdDecoder, "sbnd": SbndDecoder}


def make_decoder(cfg: ExperimentConfig, code: LinearCode):
    return _DECODERS[cfg.decoder](code, cfg)


# ---------------------------------------------------------------------------
# Monte-Carlo driver
# ---------------------------------------------------------------------------

# Every random stream of this module: its purpose's spawn-key prefix, which
# _stream puts before the index ("chunk": (point, chunk); "train batch":
# (step,)).  Two pairs coincide: "chunk" (1, j) is "train batch" (j,)
# (ROADMAP item 4b), and "interleaver" is "train init" at equal seeds, which
# no run draws from both.
_STREAMS = {"train init": (), "interleaver": (), "chunk": (),
            "train batch": (1,), "battery": (99,)}


def _stream(seed: int, purpose: str, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=_STREAMS[purpose] + index))


def _block(fb: FrameBatch, start: int) -> FrameBatch:
    """Views of fb's frames [start, start + DECODE_BLOCK_FRAMES)."""
    rows = slice(start, start + DECODE_BLOCK_FRAMES)
    return FrameBatch(u=fb.u[rows], c=fb.c[rows], perms=fb.perms[rows],
                      llr=fb.llr[rows])


def run_point(cfg: ExperimentConfig, ebn0_db: float,
              point_index: int | None = None) -> BerRecord:
    """Simulate one grid point until the stop rule fires: a one-point
    sweep.  The point's RNG streams derive from its index on the grid, so
    an Eb/N0 off cfg.ebn0_db needs an explicit point_index."""
    if point_index is None:
        if ebn0_db not in cfg.ebn0_db:
            raise ValueError(f"Eb/N0 {ebn0_db:g} dB is not on the grid "
                             f"{cfg.ebn0_db}; pass point_index")
        point_index = cfg.ebn0_db.index(ebn0_db)
    return _simulate(cfg, [(point_index, ebn0_db)])[0]


def run_sweep(cfg: ExperimentConfig) -> list[BerRecord]:
    _check_directories(cfg, "out")
    records = _simulate(cfg, list(enumerate(cfg.ebn0_db)))
    if cfg.out:
        write_csv(cfg.out, cfg, records)
    return records


def _simulate(cfg: ExperimentConfig,
              points: list[tuple[int, float]]) -> list[BerRecord]:
    """One record per (grid index, Eb/N0 dB) of points, in order, each
    simulated until the stop rule fires, on one code, decoder, interleaver
    and pool.  Units run on this thread and min(cfg.workers,
    available_cores()) - 1 pool threads, with BLAS on one thread from the
    code's construction to the last fold, then the caller's count again:
    the GF(2) products are small, and BLAS's own threads slow them."""
    set_allocator_policy()
    # chunk partitioning is fixed, so totals never depend on the pool size;
    # a thread past one per core would only hold one more chunk's working
    # set; fewer than 2 * workers chunks are queued past the next one to
    # fold, none past the frame budget, and a single worker has no pool to
    # queue on, so it never starts a chunk past the stop
    budget = -(-cfg.stop.max_frames // CHUNK_FRAMES)
    workers = min(cfg.workers, available_cores())
    ahead = 2 * workers
    records = []
    # the pool starts no thread before its first unit
    with _blas_threads(1), thread_pool(workers - 1) as pool:
        code = get_code(cfg.code)
        const = build_constellation(cfg.constellation)
        decoder = make_decoder(cfg, code)
        pinned = None if cfg.interleaver == "fresh" else draw_interleaver(
            code.n, _stream(cfg.interleaver_seed, "interleaver"))

        def chunk(point_index: int, noise: NoiseConfig,
                  chunk_index: int) -> ErrorCounter:
            fb = transmit_batch(code, const, noise, _stream(
                cfg.seed, "chunk", point_index, chunk_index), CHUNK_FRAMES,
                demap_kind=cfg.demap, interleaver=pinned)
            blocks = run_in_order(
                CHUNK_FRAMES // DECODE_BLOCK_FRAMES, lambda i:
                decoder.decode_chunk(_block(fb, i * DECODE_BLOCK_FRAMES)),
                pool)
            return functools.reduce(ErrorCounter.merge, blocks, ErrorCounter())

        for point_index, ebn0_db in points:
            noise = NoiseConfig.from_ebn0_db(ebn0_db, code.rate, const.m)
            t0 = time.perf_counter()
            total = ErrorCounter()
            with closing(run_in_order(
                    budget, functools.partial(chunk, point_index, noise),
                    pool, ahead)) as chunks:
                for counts in chunks:
                    total.merge(counts)
                    if cfg.stop.satisfied(total):
                        break
            bits = total.frames * code.k
            records.append(BerRecord(
                ebn0_db, total.frames, total.bit_errors, total.frame_errors,
                ber=total.bit_errors / bits,
                fer=total.frame_errors / total.frames,
                ml_bound_ber=(total.ml_bit_errors / bits
                              if cfg.decoder == "osd" else None),
                seconds=time.perf_counter() - t0))
    return records


CSV_HEADER = "ebn0_db,frames,bit_errors,frame_errors,ber,fer,ml_bound_ber,seconds"


def write_csv(path, cfg: ExperimentConfig, records: list[BerRecord]) -> None:
    lines = [
        f"# code={cfg.code}",
        f"# constellation={cfg.constellation}",
        f"# decoder={cfg.decoder_id()}",
        f"# demap={cfg.demap}",
        f"# interleaver={cfg.interleaver}",
        *([f"# interleaver_seed={cfg.interleaver_seed}"]
          if cfg.interleaver == "pinned" else []),
        f"# seed={cfg.seed}",
        f"# stop=min_fe:{cfg.stop.min_frame_errors},min_be:{cfg.stop.min_bit_errors},max_frames:{cfg.stop.max_frames}",
        *csv_rows(records),
    ]
    _write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def csv_rows(records: list[BerRecord]) -> list[str]:
    """CSV_HEADER, then one row per record: the table of write_csv, which
    `bicmlab simulate` also prints."""
    rows = [CSV_HEADER]
    for r in records:
        ml = "" if r.ml_bound_ber is None else f"{r.ml_bound_ber:.8g}"
        rows.append(f"{r.ebn0_db:g},{r.frames},{r.bit_errors},{r.frame_errors},"
                    f"{r.ber:.8g},{r.fer:.8g},{ml},{r.seconds:.3f}")
    return rows


def _check_directories(cfg, *keys: str) -> None:
    """Refuse an output path that is a directory or in a missing directory,
    before any work."""
    for key in keys:
        path = getattr(cfg, key)
        if path and os.path.isdir(path):
            raise ValueError(f"{key} = {path} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{key} = {path} is in no existing directory")


# ---------------------------------------------------------------------------
# estimator training
# ---------------------------------------------------------------------------

# the TrainConfig keys each architecture reads: its config's fields after r
# and k
_ARCH_KEYS = {arch: tuple(f.name for f in fields(cls)[2:])
              for arch, (cls, _) in ARCHS.items()}


@dataclass(frozen=True)
class TrainConfig:
    code: str = "polar_16_8"
    constellation: str = "qam16"
    arch: str = "rnn"
    alpha: int = 2
    time_steps: int = 3
    depth: int = 2
    embed_dim: int = 32
    heads: int = 4
    encoders: int = 2
    batch_size: int = 512
    steps: int = 3000
    lr: float = 1e-3
    train_ebn0_db: float = 5.0
    demap: str = "exact"
    seed: int = 0
    out: str = "estimator.ckpt"
    curve: str = ""
    log_every: int = 100
    resume: str = ""

    def __post_init__(self):
        _check_choice("arch", self.arch, tuple(_ARCH_KEYS))
        _check_unread(self, [key for arch, keys in _ARCH_KEYS.items()
                             if arch != self.arch for key in keys],
                      f"arch {self.arch!r}")
        build_constellation(self.constellation)
        _check_choice("demap", self.demap, _DEMAPPERS)
        _check_at_least(self, 0, "steps", "seed")
        _check_at_least(self, 1, "batch_size", "log_every")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be > 0 and finite, got {self.lr}")
        _check_finite("train_ebn0_db", self.train_ebn0_db)

    def model_config(self, code: LinearCode):
        return ARCHS[self.arch][0].for_code(code.n, code.k, **{
            key: getattr(self, key) for key in _ARCH_KEYS[self.arch]})


TRAIN_PRESETS: dict[str, dict] = {
    # full-scale reference models; constructing them is cheap, training
    # them is not a desk-scale activity
    "table1-rnn": dict(arch="rnn", alpha=5, time_steps=5, depth=5,
                       batch_size=4096),
    "table1-transformer": dict(arch="transformer", embed_dim=128, heads=8,
                               encoders=10, batch_size=256),
    # defaults sized for minutes of CPU training
    "desk-rnn": dict(arch="rnn", alpha=2, time_steps=3, depth=2,
                     batch_size=512),
    "desk-transformer": dict(arch="transformer", embed_dim=32, heads=4,
                             encoders=2, batch_size=256),
}


def train_config_from_preset(preset: str, **overrides) -> TrainConfig:
    if preset not in TRAIN_PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {', '.join(TRAIN_PRESETS)}"
        )
    kw = dict(TRAIN_PRESETS[preset])
    kw.update(overrides)
    return TrainConfig(**kw)


def available_cores() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def train_workers(cfg: TrainConfig) -> int:
    """Threads train_estimator runs a step's gradient shards on, its own
    included: one per shard, at most one per core."""
    return min(-(-cfg.batch_size // TRAIN_SHARD_FRAMES), available_cores())


def train_estimator(cfg: TrainConfig, verbose: bool = False) -> str:
    """Train a bit-flip estimator on streamed random-codeword BICM frames.

    Returns the checkpoint path.  The reliability normalization constant is
    measured once on a calibration draw at the training SNR and frozen into
    the checkpoint; inference applies the same constant.  Each step's
    gradient shards (see train_step) run on this thread and
    train_workers(cfg) - 1 pool threads; the weights are the same for any
    count.  On a failure the network is saved to <out>.diverged with the
    step count it has completed.  From get_code on, calibration included,
    BLAS has max(1, available_cores() // train_workers(cfg)) threads, so
    that our threads and BLAS's own do not oversubscribe the cores.
    A missing out or curve directory, or a resume of a network other than
    the one cfg builds for its code, is refused before any step.
    """
    _check_directories(cfg, "out", "curve")
    set_allocator_policy()
    workers = train_workers(cfg)
    with _blas_threads(max(1, available_cores() // workers)):
        code = get_code(cfg.code)
        const = build_constellation(cfg.constellation)
        noise = NoiseConfig.from_ebn0_db(cfg.train_ebn0_db, code.rate, const.m)
        rng = _stream(cfg.seed, "train init")

        start_step = 0
        if cfg.resume:
            net, header = load_checkpoint(cfg.resume)
            want = cfg.model_config(code)
            if net.cfg != want:
                raise ValueError(f"resume {cfg.resume} holds {net.cfg}; this "
                                 f"config builds {want}")
            input_scale = header["input_scale"]
            start_step = header["step"]
        else:
            net = build_estimator(cfg.model_config(code), rng)
            # only the scale outlives the calibration draw
            input_scale = 1.0 / float(np.mean(np.abs(transmit_batch(
                code, const, noise, rng, 4096, demap_kind=cfg.demap).llr)))
        if verbose:
            print(f"model: {cfg.arch} with {net.num_params()} parameters")

        opt = Adam(net.params(), lr=cfg.lr)
        curve: list[tuple[int, float]] = []
        step = start_step
        t0 = time.perf_counter()
        try:
            with thread_pool(workers - 1) as pool:
                for step in range(start_step, start_step + cfg.steps):
                    fb = transmit_batch(code, const, noise,
                                        _stream(cfg.seed, "train batch", step),
                                        cfg.batch_size, demap_kind=cfg.demap)
                    x, t = make_training_batch(fb, code)
                    del fb
                    x[:, :code.n] *= input_scale
                    x, t = x.astype(np.float32), t.astype(np.float32)
                    loss = train_step(net, x, t, opt, pool, workers)
                    if (step + 1) % cfg.log_every == 0 or step == start_step:
                        curve.append((step + 1, loss))
                        if verbose:
                            print(f"step {step + 1:6d}  loss {loss:.5f}  "
                                  f"({time.perf_counter() - t0:.0f}s)")
        except Exception:
            # the failing step took no update: the network has completed
            # `step` steps, and a resume from this file starts at that one
            save_checkpoint(str(cfg.out) + ".diverged", net,
                            input_scale=input_scale, step=step, seed=cfg.seed)
            raise

    save_checkpoint(cfg.out, net, input_scale=input_scale,
                    step=start_step + cfg.steps, seed=cfg.seed)
    if cfg.curve:
        _write_atomic(cfg.curve, [("step,loss\n" + "".join(
            f"{s},{l:.6f}\n" for s, l in curve)).encode("utf-8")])
    return cfg.out


# ---------------------------------------------------------------------------
# channel-model verification battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    bound: str
    passed: bool


def verify_channel(seed: int = 0, symmetry_bits: int = 1_000_000,
                   corr_frames: int = 150_000) -> list[CheckRow]:
    """Run the binary-channel-model test battery on polar_64_32 and return
    one row per check.

    Covers: crossover symmetry z-tests and flip-correlation bounds for Gray
    8-PSK (Es/N0 3 and 6 dB) and Gray 16-QAM (0 and 6 dB), and the
    crossover against the closed form for 8-PSK and for BPSK at 0 dB.
    Hard decisions come from the max-log demapper, whose decision regions are
    the ones the binary channel model is built on.  BLAS runs on one thread
    throughout, as in _simulate, then on the caller's count again."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    set_allocator_policy()
    with _blas_threads(1):
        rows: list[CheckRow] = []
        code = get_code("polar_64_32")
        rng = _stream(seed, "battery")
        frames_sym = -(-symmetry_bits // code.n)

        bpsk = build_constellation("bpsk")
        n0 = NoiseConfig.from_esn0_db(0.0)
        est = channel_statistics(code, bpsk, n0, frames_sym, rng)
        q_hat, se = est.pooled_q(), est.pooled_q_stderr()
        _, q_ref = predicted_crossover(bpsk, n0)
        rows.append(CheckRow(
            "bpsk@0dB crossover vs closed form (|dev|/sigma)",
            abs(q_hat - q_ref) / se, "<= 3", abs(q_hat - q_ref) <= 3 * se))

        for kind, esn0_list in (("psk8", (3.0, 6.0)), ("qam16", (0.0, 6.0))):
            const = build_constellation(kind)
            for esn0 in esn0_list:
                noise = NoiseConfig.from_esn0_db(esn0)
                tag = f"{kind}@{esn0:g}dB"
                est = channel_statistics(code, const, noise, frames_sym, rng)
                z = bsc_symmetry_ztest(est)
                rows.append(CheckRow(f"{tag} symmetry max |z|", z.max_abs_z(),
                                     "<= 4", z.max_abs_z() <= 4.0))
                if kind == "psk8":
                    per, q_ref = predicted_crossover(const, noise)
                    q_hat, se = est.pooled_q(), est.pooled_q_stderr()
                    rows.append(CheckRow(
                        f"{tag} crossover vs closed form (|dev|/sigma)",
                        abs(q_hat - q_ref) / se, "<= 3",
                        abs(q_hat - q_ref) <= 3 * se))
                corr = channel_statistics(code, const, noise, corr_frames, rng)
                rows.append(CheckRow(f"{tag} flip correlation max |corr|",
                                     corr.max_abs_corr, "<= 0.02",
                                     corr.max_abs_corr <= 0.02))
        return rows
