"""Experiment runner: determinism, decoder equivalence, CSV schema,
config parsing, training entry points, and the CLI."""

import argparse
import ctypes
import hashlib
import os
import shlex
import resource
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__ as _cpu_features

from bicmlab import cli, harness
from bicmlab.harness import (
    ExperimentConfig,
    NeuralEstimator,
    StopRule,
    TrainConfig,
    config_kwargs,
    parse_config_text,
    run_point,
    run_sweep,
    train_config_from_preset,
    train_estimator,
    verify_channel,
    write_csv,
)
from bicmlab.bicm import predicted_crossover, transmit_batch
from bicmlab.gf2code import dump_alist, get_code
from bicmlab.modem import NoiseConfig, build_constellation
from bicmlab.neural import (
    CheckpointError,
    RnnConfig,
    RnnEstimator,
    TrainingDiverged,
    TransformerEstimator,
    build_estimator,
    load_checkpoint,
    save_checkpoint,
)
from bicmlab.refdec import ErrorCounter


def quick_stop(frames=4096):
    return StopRule(min_frame_errors=0, min_bit_errors=0, max_frames=frames)


class TestConfig:
    def test_parse_key_values(self):
        kv = parse_config_text(
            "# comment\ncode = hamming_7_4\nebn0_db = 1, 2,3\nworkers=2\n"
            "max_frames = 4096\n")
        cfg = ExperimentConfig(**config_kwargs(ExperimentConfig, kv))
        assert cfg.code == "hamming_7_4"
        assert cfg.ebn0_db == (1.0, 2.0, 3.0)
        assert cfg.workers == 2
        assert cfg.stop == StopRule(max_frames=4096)

    def test_train_keys_typed(self):
        kv = parse_config_text("arch = transformer\nlr = 0.01\nsteps = 7\n")
        assert config_kwargs(TrainConfig, kv) == dict(
            arch="transformer", lr=0.01, steps=7)

    @pytest.mark.parametrize("cls", [ExperimentConfig, TrainConfig])
    def test_unknown_key_rejected(self, cls):
        # pad is no key: padding follows from n and m
        for line in ("osd_ordr = 5", "pad = true"):
            key = line.split()[0]
            with pytest.raises(ValueError,
                               match=f"^unknown config key '{key}'$"):
                config_kwargs(cls, parse_config_text(line))

    def test_readme_example_config_parses(self):
        readme = Path(__file__).parents[1] / "README.md"
        section = readme.read_text().split("### Experiment config format")[1]
        block = section.split("```")[1]
        cfg = ExperimentConfig(**config_kwargs(ExperimentConfig,
                                               parse_config_text(block)))
        assert (cfg.code, cfg.decoder, cfg.workers) == ("polar_64_32", "osd", 4)

    def test_readme_command_lines_parse(self):
        # every documented command line, through the CLI's own parser and,
        # for its KEY=VALUE arguments, the config typing; nothing runs
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        lines = [l for b in blocks
                 for l in b.replace("\\\n", " ").splitlines()
                 if l.startswith("bicmlab ")]
        assert len(lines) >= 6
        parser = cli._parser()
        for line in lines:
            args = cli._parse_args(parser, shlex.split(line)[1:])
            if "settings" in vars(args):
                kv = {}
                for arg in args.settings:
                    kv.update(parse_config_text(arg))
                config_kwargs(args.cls, kv)

    @pytest.mark.parametrize("arch, key, value", [
        ("rnn", "embed_dim", 64), ("rnn", "heads", 8), ("rnn", "encoders", 3),
        ("transformer", "alpha", 5), ("transformer", "time_steps", 1),
        ("transformer", "depth", 3),
    ])
    def test_key_the_arch_does_not_read_refused(self, arch, key, value):
        with pytest.raises(ValueError, match=(
                f"^{key} = {value} is not read by arch '{arch}'$")):
            TrainConfig(arch=arch, **{key: value})
        # the default value is no setting, so it passes
        TrainConfig(arch=arch, **{key: getattr(TrainConfig(), key)})

    @pytest.mark.parametrize("decoder, key, value", [
        ("hard-pinv", "osd_order", 3), ("map", "osd_order", 0),
        ("osd", "checkpoint", "x.ckpt"), ("map", "checkpoint", "x.ckpt"),
    ])
    def test_key_the_decoder_does_not_read_refused(self, decoder, key, value):
        kv = parse_config_text(f"decoder = {decoder}\n{key} = {value}\n")
        with pytest.raises(ValueError, match=(
                f"^{key} = {value} is not read by decoder '{decoder}'$")):
            ExperimentConfig(**config_kwargs(ExperimentConfig, kv))
        # the default value is no setting, so it passes
        ExperimentConfig(decoder=decoder,
                         **{key: getattr(ExperimentConfig(), key)})

    @pytest.mark.parametrize("preset", sorted(harness.TRAIN_PRESETS))
    def test_every_preset_constructs(self, preset):
        cfg = train_config_from_preset(preset)
        assert cfg.arch == harness.TRAIN_PRESETS[preset]["arch"]

    def test_stop_keys_only_for_experiments(self):
        with pytest.raises(ValueError, match="max_frames"):
            config_kwargs(TrainConfig, {"max_frames": "5"})

    @pytest.mark.parametrize("key, value", [
        ("constellation", "qpks"),
        ("demap", "max-log"),
        ("interleaver", "random"),
    ])
    def test_bad_experiment_choice(self, key, value):
        kv = parse_config_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{key} '{value}'"):
            ExperimentConfig(**config_kwargs(ExperimentConfig, kv))

    @pytest.mark.parametrize("key, value", [
        ("arch", "lstm"),
        ("constellation", "qam64"),
        ("demap", "approx"),
    ])
    def test_bad_train_choice(self, key, value):
        with pytest.raises(ValueError, match=f"{key} '{value}'"):
            TrainConfig(**{key: value})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ExperimentConfig(ebn0_db=())

    def test_sbnd_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            ExperimentConfig(decoder="sbnd")

    def test_bad_decoder(self):
        with pytest.raises(ValueError, match="decoder"):
            ExperimentConfig(decoder="turbo")

    @pytest.mark.parametrize("text", [
        "out = run#3.csv", "out=run#3.csv # the third run",
        "# out = x.csv\nout = run#3.csv\t# a tab before the comment",
    ])
    def test_hash_inside_a_value_is_kept(self, text):
        assert parse_config_text(text) == {"out": "run#3.csv"}

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a = 1\nbroken-line\n")

    @pytest.mark.parametrize("cls, text, match", [
        (ExperimentConfig, "osd_order = two", "'osd_order': bad int"),
        (ExperimentConfig, "max_frames = lots", "'max_frames': bad int"),
        (ExperimentConfig, "ebn0_db = 1, x", "'ebn0_db': bad tuple"),
        (TrainConfig, "lr = fast", "'lr': bad float"),
        (ExperimentConfig, "seed = 1\nseed = 2", "line 2: duplicate key 'seed'"),
    ], ids=["osd_order", "max_frames", "ebn0_db", "lr", "duplicate"])
    def test_bad_value_names_its_key(self, cls, text, match):
        with pytest.raises(ValueError, match=match):
            config_kwargs(cls, parse_config_text(text))

    OUT_OF_RANGE = [
        (TrainConfig, "steps", -1, ">= 0, got -1"),
        (TrainConfig, "batch_size", 0, ">= 1, got 0"),
        (TrainConfig, "log_every", 0, ">= 1, got 0"),
        (TrainConfig, "seed", -1, ">= 0, got -1"),
        (ExperimentConfig, "seed", -1, ">= 0, got -1"),
        (ExperimentConfig, "interleaver_seed", -1, ">= 0, got -1"),
        (ExperimentConfig, "workers", 0, ">= 1, got 0"),
        (TrainConfig, "lr", 0, "> 0 and finite, got 0.0"),
        (TrainConfig, "lr", -1, "> 0 and finite, got -1.0"),
        (TrainConfig, "lr", "inf", "> 0 and finite, got inf"),
        (TrainConfig, "lr", "nan", "> 0 and finite, got nan"),
        (TrainConfig, "train_ebn0_db", "nan", "finite, got nan"),
        (ExperimentConfig, "ebn0_db", "2,nan", "finite, got nan"),
        (ExperimentConfig, "ebn0_db", "-inf", "finite, got -inf"),
    ]

    @pytest.mark.parametrize(
        "cls, key, value, message", OUT_OF_RANGE,
        ids=[f"{c.__name__}-{k}-{v}" for c, k, v, _ in OUT_OF_RANGE])
    def test_out_of_range_value_names_its_key(self, cls, key, value, message):
        kv = parse_config_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{key} must be {message}$"):
            cls(**config_kwargs(cls, kv))

    def test_zero_heads_refused(self):
        cfg = TrainConfig(arch="transformer", heads=0)
        with pytest.raises(ValueError, match="^heads must be >= 1$"):
            cfg.model_config(get_code("polar_16_8"))


class TestRunPoint:
    def test_hard_pinv_high_snr_no_errors(self):
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               decoder="hard-pinv", ebn0_db=(30.0,),
                               stop=quick_stop(10_000), seed=5)
        r = run_point(cfg, 30.0)
        assert r.bit_errors == 0
        assert r.frames >= 10_000
        assert r.ber == 0 and r.fer == 0

    def test_map_equals_full_order_osd(self):
        base = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                                decoder="map", ebn0_db=(2.0,),
                                stop=quick_stop(4096), seed=123)
        r_map = run_point(base, 2.0)
        r_osd = run_point(replace(base, decoder="osd", osd_order=4), 2.0)
        assert (r_map.frames, r_map.bit_errors, r_map.frame_errors) == \
               (r_osd.frames, r_osd.bit_errors, r_osd.frame_errors)
        assert r_osd.ml_bound_ber is not None
        assert r_osd.ml_bound_ber <= r_osd.ber

    def test_worker_count_does_not_change_totals(self, cores):
        cores(8)
        base = ExperimentConfig(code="polar_16_8", constellation="qam16",
                                decoder="hard-pinv", ebn0_db=(4.0,),
                                stop=StopRule(min_frame_errors=300,
                                              max_frames=100_000),
                                seed=42)
        r1 = run_point(base, 4.0)
        r8 = run_point(replace(base, workers=8), 4.0)
        assert (r1.frames, r1.bit_errors, r1.frame_errors) == \
               (r8.frames, r8.bit_errors, r8.frame_errors)

    def test_stop_rule_on_frame_errors(self):
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               decoder="hard-pinv", ebn0_db=(0.0,),
                               stop=StopRule(min_frame_errors=50,
                                             max_frames=1_000_000), seed=1)
        r = run_point(cfg, 0.0)
        assert r.frame_errors >= 50
        assert r.frames < 1_000_000

    def test_off_grid_point_needs_index(self):
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               ebn0_db=(2.0, 4.0), stop=quick_stop(2048))
        with pytest.raises(ValueError, match="not on the grid"):
            run_point(cfg, 3.0)
        assert run_point(cfg, 3.0, point_index=1).frames == 2048

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_no_chunk_past_frame_budget(self, monkeypatch, cores, chunks,
                                        workers):
        cores(workers)
        transmits = []
        real = harness.transmit_batch

        def counted(*args, **kwargs):
            transmits.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "transmit_batch", counted)
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               ebn0_db=(2.0,), workers=workers,
                               stop=quick_stop(chunks * harness.CHUNK_FRAMES))
        assert run_point(cfg, 2.0).frames == chunks * harness.CHUNK_FRAMES
        assert transmits == [harness.CHUNK_FRAMES] * chunks

    def test_one_worker_transmits_no_chunk_past_the_stop(self, monkeypatch):
        transmits = []
        real = harness.transmit_batch

        def counted(*args, **kwargs):
            transmits.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "transmit_batch", counted)
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               decoder="hard-pinv", ebn0_db=(8.0,),
                               stop=StopRule(min_frame_errors=100,
                                             max_frames=10 ** 6), seed=42)
        r = run_point(cfg, 8.0)
        # the error target takes several chunks, and the last one meets it
        assert r.frame_errors >= 100
        assert r.frames > harness.CHUNK_FRAMES
        assert len(transmits) == r.frames // harness.CHUNK_FRAMES

    @pytest.mark.parametrize("workers", [1, 2])
    def test_units_run_on_one_blas_thread(self, monkeypatch, workers):
        # a Python caller's BLAS count holds outside run_point only; inside
        # a unit BLAS has one thread
        get = harness._openblas("get_num_threads")
        set_ = harness._openblas("set_num_threads")
        if get is None or set_ is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        seen = []
        real = harness.transmit_batch

        def spy(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "transmit_batch", spy)
        cfg = ExperimentConfig(code="polar_16_8", constellation="qpsk",
                               ebn0_db=(2.0,), workers=workers,
                               stop=quick_stop(3 * harness.CHUNK_FRAMES))
        before = get()
        set_(ctypes.c_int(2))
        try:
            caller = get()
            assert run_point(cfg, 2.0).frames == 3 * harness.CHUNK_FRAMES
            assert seen == [1] * 3
            assert get() == caller
        finally:
            set_(ctypes.c_int(before))

    def test_osd_order_refused_before_any_chunk(self, monkeypatch):
        transmits = []
        monkeypatch.setattr(harness, "transmit_batch",
                            lambda *a, **k: transmits.append(a))
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               decoder="osd", osd_order=9, ebn0_db=(2.0,),
                               workers=2, stop=quick_stop(2048))
        with pytest.raises(ValueError, match=r"order 9 is not in \[0, 4\]"):
            run_point(cfg, 2.0)
        assert transmits == []

    def test_pinned_interleaver_mode(self):
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               decoder="hard-pinv", ebn0_db=(4.0,),
                               interleaver="pinned", interleaver_seed=3,
                               stop=quick_stop(2048), seed=2)
        r = run_point(cfg, 4.0)
        assert r.frames >= 2048

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                        reason="needs per-thread rusage")
    def test_freed_chunk_memory_is_not_refaulted(self):
        """After a run_point, a worker's second identical chunk finds the
        first one's freed memory still mapped: under 100 minor faults where
        a trimmed heap takes thousands."""
        cfg = ExperimentConfig(code="polar_128_64", constellation="qam16",
                               decoder="hard-pinv", ebn0_db=(4.0,),
                               stop=quick_stop(harness.CHUNK_FRAMES))
        run_point(cfg, 4.0)
        if not harness.set_allocator_policy():
            pytest.skip("the C library has no glibc mallopt")
        code = get_code(cfg.code)
        const = build_constellation(cfg.constellation)
        noise = NoiseConfig.from_ebn0_db(4.0, code.rate, const.m)

        def second_chunk_faults() -> int:
            def send():
                transmit_batch(code, const, noise, np.random.default_rng(5),
                               harness.CHUNK_FRAMES)

            send()
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            send()
            return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

        with ThreadPoolExecutor(max_workers=1) as ex:
            faults = ex.submit(second_chunk_faults).result(timeout=120)
        assert faults < 100


# one small point per key of harness._DECODERS; sbnd runs a random GRU
BLOCK_CASES = {
    "hard-pinv": dict(code="polar_16_8", constellation="qam16",
                      ebn0_db=(4.0,)),
    "map": dict(code="hamming_7_4", constellation="bpsk", ebn0_db=(2.0,)),
    "osd": dict(code="polar_32_16", constellation="qpsk", demap="maxlog",
                osd_order=2, ebn0_db=(3.0,)),
    "sbnd": dict(code="polar_16_8", constellation="qam16", ebn0_db=(4.0,)),
}


@pytest.fixture(scope="module")
def random_rnn_checkpoint(tmp_path_factory):
    """An untrained small GRU estimator for polar_16_8: it flips bits."""
    code = get_code("polar_16_8")
    net = build_estimator(
        RnnConfig.for_code(code.n, code.k, alpha=1, time_steps=1, depth=1),
        np.random.default_rng(3))
    path = tmp_path_factory.mktemp("blocks") / "rnn.ckpt"
    save_checkpoint(path, net)
    return str(path)


def block_case(name, checkpoint, **kw):
    extra = {"checkpoint": checkpoint} if name == "sbnd" else {}
    return ExperimentConfig(decoder=name, stop=quick_stop(harness.CHUNK_FRAMES),
                            **BLOCK_CASES[name], **extra, **kw)


@pytest.fixture
def probe(monkeypatch):
    """A hard-pinv decoder registered as "probe": each decode_chunk call
    records its thread, sleeps sleep_s, and the fail_at-th call raises."""
    lock = threading.Lock()

    class Probe(harness.HardPinvDecoder):
        threads: list[int] = []
        sleep_s = 0.0
        fail_at = 0

        def decode_chunk(self, fb):
            with lock:
                self.threads.append(threading.get_ident())
                call = len(self.threads)
            if call == self.fail_at:
                raise RuntimeError(f"block {call} failed")
            time.sleep(self.sleep_s)
            return super().decode_chunk(fb)

    monkeypatch.setitem(harness._DECODERS, "probe", Probe)
    return Probe


def probe_config(workers, **stop):
    return ExperimentConfig(code="polar_16_8", constellation="qam16",
                            decoder="probe", ebn0_db=(4.0,), workers=workers,
                            stop=StopRule(**stop) if stop
                            else quick_stop(harness.CHUNK_FRAMES))


def run_point_within(cfg, seconds=60.0):
    """run_point on a daemon thread: a hang fails the test after seconds
    instead of stalling the suite."""
    out = {}

    def target():
        try:
            out["record"] = run_point(cfg, cfg.ebn0_db[0])
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"run_point still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["record"]


class TestDecodeBlocks:
    """Each chunk decodes in DECODE_BLOCK_FRAMES blocks that any idle pool
    thread may take; no split may change a count."""

    @pytest.mark.parametrize("name", sorted(harness._DECODERS))
    def test_blocks_merge_to_the_whole_chunk(self, name,
                                             random_rnn_checkpoint):
        cfg = block_case(name, random_rnn_checkpoint)
        code = get_code(cfg.code)
        const = build_constellation(cfg.constellation)
        noise = NoiseConfig.from_ebn0_db(cfg.ebn0_db[0], code.rate, const.m)
        fb = transmit_batch(code, const, noise, np.random.default_rng(7),
                            harness.CHUNK_FRAMES, demap_kind=cfg.demap)
        decoder = harness.make_decoder(cfg, code)
        merged = ErrorCounter()
        for start in range(0, harness.CHUNK_FRAMES,
                           harness.DECODE_BLOCK_FRAMES):
            merged.merge(decoder.decode_chunk(harness._block(fb, start)))
        whole = decoder.decode_chunk(fb)
        assert merged == whole
        assert whole.frame_errors > 0

    @pytest.mark.parametrize("name", sorted(harness._DECODERS))
    def test_one_chunk_point_at_any_worker_count(self, name, cores,
                                                 random_rnn_checkpoint):
        cores(3)
        counts = set()
        for workers in (1, 2, 3):
            cfg = block_case(name, random_rnn_checkpoint, workers=workers)
            r = run_point(cfg, cfg.ebn0_db[0])
            counts.add((r.frames, r.bit_errors, r.frame_errors,
                        r.ml_bound_ber))
        assert len(counts) == 1

    def test_more_workers_than_cores_on_fast_switches(self, cores):
        """A block lost or decoded twice, or a lost merge, would move the
        totals; a 1 us switch interval makes such races likely."""
        cores(6)
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               decoder="hard-pinv", ebn0_db=(4.0,),
                               stop=quick_stop(8 * harness.CHUNK_FRAMES))
        want = run_point(cfg, 4.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_point_within(replace(cfg, workers=6))
        finally:
            sys.setswitchinterval(interval)
        assert (got.frames, got.bit_errors, got.frame_errors) == \
               (want.frames, want.bit_errors, want.frame_errors)

    def test_idle_worker_takes_a_block(self, probe, cores):
        cores(2)
        probe.sleep_s = 0.1
        run_point_within(probe_config(workers=2))
        assert len(probe.threads) == 2
        assert len(set(probe.threads)) == 2

    def test_one_worker_decodes_every_block(self, probe):
        probe.sleep_s = 0.1
        run_point_within(probe_config(workers=1))
        assert len(probe.threads) == 2
        assert len(set(probe.threads)) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_block_raises(self, probe, cores, workers):
        cores(workers)
        probe.sleep_s = 0.05
        probe.fail_at = 2
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 2 failed"):
            run_point_within(probe_config(workers))
        assert threading.active_count() == threads_before

    def test_stop_in_chunk_zero_past_running_chunks(self, probe, monkeypatch,
                                                    cores):
        """Chunk 0 meets the error target while later chunks still
        transmit; the stop cancels the queued chunks and waits on the
        running ones, and the point must still return chunk 0's counts and
        join every thread."""
        cores(2)
        real_rng = harness._chunk_rng

        def slow_past_chunk_zero(seed, point_index, chunk_index):
            if chunk_index > 0:
                time.sleep(0.3)
            return real_rng(seed, point_index, chunk_index)

        monkeypatch.setattr(harness, "_chunk_rng", slow_past_chunk_zero)
        one_chunk = run_point_within(probe_config(workers=1))
        probe.threads.clear()
        threads_before = threading.active_count()
        r = run_point_within(probe_config(workers=2, min_frame_errors=1,
                                          max_frames=10 ** 6))
        assert threading.active_count() == threads_before
        assert (r.frames, r.bit_errors, r.frame_errors) == \
               (one_chunk.frames, one_chunk.bit_errors,
                one_chunk.frame_errors)
        # a speculative chunk ran and was decoded after the stop
        assert len(probe.threads) >= 4

    def test_pool_has_at_most_one_thread_per_core(self, probe, monkeypatch,
                                                  cores):
        cores(2)
        probe.sleep_s = 0.02
        stop = dict(min_frame_errors=0, min_bit_errors=0,
                    max_frames=4 * harness.CHUNK_FRAMES)
        want = run_point_within(probe_config(workers=1, **stop))
        probe.threads.clear()
        alive = []
        real_rng = harness._chunk_rng

        def counting_rng(*args):
            alive.append(threading.active_count())
            return real_rng(*args)

        monkeypatch.setattr(harness, "_chunk_rng", counting_rng)
        before = threading.active_count()
        got = run_point_within(probe_config(workers=6, **stop))
        assert len(set(probe.threads)) <= 2
        # run_point_within's thread and at most one pool thread
        assert max(alive) <= before + 2
        assert (got.frames, got.bit_errors, got.frame_errors) == \
               (want.frames, want.bit_errors, want.frame_errors)


def record_counts(records):
    return [(r.ebn0_db, r.frames, r.bit_errors, r.frame_errors,
             r.ml_bound_ber) for r in records]


class TestSweep:
    """A sweep builds its code, decoder, interleaver and pool once, and
    gives each point the record run_point gives it."""

    def test_three_points_build_one_decoder(self, monkeypatch):
        built = []
        real = harness.make_decoder

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "make_decoder", counted)
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               ebn0_db=(1.0, 3.0, 5.0), stop=quick_stop(2048))
        assert len(run_sweep(cfg)) == 3
        assert len(built) == 1

    def test_sbnd_sweep_loads_its_checkpoint_once(self, monkeypatch,
                                                  random_rnn_checkpoint):
        loads = []
        real = harness.load_checkpoint

        def counted(path):
            loads.append(path)
            return real(path)

        monkeypatch.setattr(harness, "load_checkpoint", counted)
        cfg = replace(block_case("sbnd", random_rnn_checkpoint),
                      ebn0_db=(2.0, 4.0, 6.0))
        assert len(run_sweep(cfg)) == 3
        assert loads == [random_rnn_checkpoint]

    def test_records_do_not_depend_on_workers_or_timing(self, monkeypatch,
                                                        cores):
        """Each block sleeps 0-4 ms, seeded by its frames, so blocks and
        chunks end out of order at several workers."""
        cores(4)

        class Sleepy(harness.HardPinvDecoder):
            def decode_chunk(self, fb):
                time.sleep(zlib.crc32(fb.u.tobytes()) % 5 / 1000)
                return super().decode_chunk(fb)

        monkeypatch.setitem(harness._DECODERS, "sleepy", Sleepy)
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               decoder="sleepy", ebn0_db=(6.0, 11.0, 14.0),
                               seed=8, stop=StopRule(
                                   min_frame_errors=300,
                                   max_frames=6 * harness.CHUNK_FRAMES))
        want = record_counts(run_point(cfg, e, point_index=i)
                             for i, e in enumerate(cfg.ebn0_db))
        # the grid's points stop after different chunk counts
        assert len({frames for _, frames, *_ in want}) > 1
        for workers in (1, 2, 4):
            got = run_sweep(replace(cfg, workers=workers))
            assert record_counts(got) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_raises_and_joins_every_thread(self, probe, cores,
                                                         tmp_path, workers):
        cores(workers)
        probe.sleep_s = 0.02
        # a point is one chunk of two blocks: call 3 is the second point's
        probe.fail_at = 3
        out = tmp_path / "s.csv"
        cfg = replace(probe_config(workers), ebn0_db=(2.0, 4.0, 6.0),
                      out=str(out))
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 3 failed"):
            run_sweep(cfg)
        assert threading.active_count() == threads_before
        # the third point never started, and no CSV was written
        assert len(probe.threads) <= 4
        assert not out.exists()


class TestSweepCsv:
    def test_three_point_sweep_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               decoder="osd", osd_order=4,
                               ebn0_db=(1.0, 3.0, 5.0),
                               stop=quick_stop(2048), seed=9, out=str(out))
        records = run_sweep(cfg)
        text = out.read_text().splitlines()
        comments = [l for l in text if l.startswith("#")]
        data = [l for l in text if not l.startswith("#")]
        assert any("code=hamming_7_4" in c for c in comments)
        assert data[0] == harness.CSV_HEADER
        assert len(data) == 1 + 3
        # BER decreasing with SNR for a real decoder
        bers = [r.ber for r in records]
        assert bers[0] > bers[1] > bers[2]
        # ml bound column present and bounded by ber
        for r in records:
            assert r.ml_bound_ber <= r.ber

    def test_ml_bound_blank_for_non_osd(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               decoder="hard-pinv", ebn0_db=(2.0,),
                               stop=quick_stop(2048), seed=3, out=str(out))
        run_sweep(cfg)
        row = [l for l in out.read_text().splitlines()
               if not l.startswith("#")][1]
        assert row.split(",")[6] == ""

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               ebn0_db=(2.0,), stop=quick_stop(2048), seed=3)
        write_csv(out, cfg, [run_point(cfg, 2.0)])
        assert out.exists()
        assert not (tmp_path / "x.csv.tmp").exists()

    def test_missing_out_directory_refused_before_any_chunk(self, tmp_path,
                                                            monkeypatch):
        transmits = []
        monkeypatch.setattr(harness, "transmit_batch",
                            lambda *a, **k: transmits.append(a))
        out = tmp_path / "absent" / "x.csv"
        cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                               ebn0_db=(2.0,), stop=quick_stop(2048),
                               out=str(out))
        with pytest.raises(ValueError, match=(
                f"^out = {out} is in no existing directory$")):
            run_sweep(cfg)
        assert transmits == []

    def test_osd_sweep_monotone_on_polar_64_32(self):
        cfg = ExperimentConfig(code="polar_64_32", constellation="qpsk",
                               decoder="osd", osd_order=2,
                               ebn0_db=(2.0, 3.0, 4.0),
                               stop=StopRule(min_frame_errors=100,
                                             max_frames=80_000),
                               seed=11, workers=4)
        records = run_sweep(cfg)
        assert all(r.frame_errors >= 100 for r in records)
        bers = [r.ber for r in records]
        assert bers[0] > bers[1] > bers[2]
        for r in records:
            assert r.ml_bound_ber <= r.ber


class TestTraining:
    def test_table1_preset_parameter_count(self):
        cfg = train_config_from_preset("table1-rnn", code="polar_128_64")
        model_cfg = cfg.model_config(get_code("polar_128_64"))
        assert model_cfg.weights() == 25_512_064

    @pytest.mark.parametrize("preset, net_type", [
        ("desk-rnn", RnnEstimator),
        ("desk-transformer", TransformerEstimator),
    ])
    def test_build_network_follows_arch(self, preset, net_type):
        cfg = train_config_from_preset(preset)
        code = get_code(cfg.code)
        net = build_estimator(cfg.model_config(code),
                              np.random.default_rng(0))
        assert type(net) is net_type
        assert net.cfg == cfg.model_config(code)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            train_config_from_preset("table9-rnn")

    def test_short_training_run_and_resume(self, tmp_path):
        ckpt = tmp_path / "est.ckpt"
        cfg = TrainConfig(code="polar_16_8", constellation="qam16",
                          arch="rnn", alpha=1, time_steps=2, depth=1,
                          batch_size=64, steps=5, seed=3, out=str(ckpt),
                          curve=str(tmp_path / "curve.csv"))
        train_estimator(cfg)
        assert ckpt.exists()
        _, header = load_checkpoint(ckpt)
        assert header["step"] == 5
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss"

        # resuming for zero extra steps only rewrites the same bytes
        before = ckpt.read_bytes()
        cfg0 = replace(cfg, resume=str(ckpt), steps=0)
        train_estimator(cfg0)
        assert ckpt.read_bytes() == before

        # 3 bits per symbol do not divide n = 16: the chain pads itself
        padded = replace(cfg, constellation="psk8", steps=2,
                         out=str(tmp_path / "psk8.ckpt"), curve="")
        _, header = load_checkpoint(train_estimator(padded))
        assert header["step"] == 2

    @pytest.mark.parametrize("batch", [512, 600])
    def test_thread_count_changes_no_bit(self, tmp_path, monkeypatch, batch):
        # 256-frame shards: 512 is two full shards, 600 is 256 + 256 + 88
        files = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(harness, "available_cores", lambda: cores)
            cfg = train_config_from_preset(
                "desk-rnn", code="polar_16_8", batch_size=batch, steps=4,
                seed=5, log_every=1, out=str(tmp_path / f"{cores}.ckpt"),
                curve=str(tmp_path / f"{cores}.csv"))
            assert harness.train_workers(cfg) == min(-(-batch // 256), cores)
            train_estimator(cfg)
            files.append((Path(cfg.out).read_bytes(),
                          Path(cfg.curve).read_bytes()))
        assert files[0] == files[1] == files[2]

    @pytest.mark.skipif(
        not _cpu_features.get("AVX512_SPR"),
        reason="trained weights depend on numpy's SIMD target; the "
               "fingerprints were recorded at AVX512_SPR")
    @pytest.mark.parametrize("cores", [1, 2], ids=["inline", "pool"])
    @pytest.mark.parametrize("preset, code, batch, sha256", [
        ("desk-rnn", "polar_64_32", 512,
         "99c8d44f511bf869c8615d5560541a9360d286a6db522e15fa6dc46053270e85"),
        ("desk-transformer", "polar_32_16", 768,
         "3fe012e3005e79bb717bd1ba46c18ca6971a7cc28c09951b08fec3bd7bfe0291"),
        ("desk-rnn", "polar_16_8", 1000,  # the last shard is short
         "839fe783d86ac65d312e9665a54a8bd5cd11c9c9243a44215be3144affcdcf1e"),
    ], ids=["rnn-64", "transformer-32", "rnn-16"])
    def test_checkpoint_fingerprint(self, tmp_path, monkeypatch, cores,
                                    preset, code, batch, sha256):
        # six steps' weights, byte for byte: a change to the training
        # numerics, or to how shard gradients are summed, shows here
        monkeypatch.setattr(harness, "available_cores", lambda: cores)
        cfg = train_config_from_preset(
            preset, code=code, constellation="qam16", demap="exact",
            batch_size=batch, steps=6, seed=3, out=str(tmp_path / "t.ckpt"))
        data = Path(train_estimator(cfg)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("cores", [1, 2], ids=["inline", "pool"])
    def test_diverged_checkpoint_records_completed_steps(
            self, tmp_path, monkeypatch, cores):
        # the third step's logits go non-finite: two steps are complete
        monkeypatch.setattr(harness, "available_cores", lambda: cores)
        threads = []
        forward = RnnEstimator.forward

        def failing_forward(net, x, tape=None):
            logits = forward(net, x, tape)
            if tape is not None:
                threads.append(threading.current_thread())
                if len(threads) > 2 * 2:  # two shards in each of two steps
                    logits[...] = np.nan
            return logits

        monkeypatch.setattr(RnnEstimator, "forward", failing_forward)
        ckpt = tmp_path / "est.ckpt"
        cfg = TrainConfig(code="polar_16_8", constellation="qam16",
                          arch="rnn", alpha=1, time_steps=2, depth=1,
                          batch_size=512, steps=5, seed=3, out=str(ckpt))
        active = threading.active_count()
        with pytest.raises(TrainingDiverged, match="non-finite activation"):
            train_estimator(cfg)
        assert threading.active_count() == active
        # the calling thread runs a shard of every step, and the pool adds
        # at most cores - 1 threads
        assert threading.main_thread() in threads[-2:]
        assert len(set(threads)) <= cores
        assert not ckpt.exists()
        _, header = load_checkpoint(str(ckpt) + ".diverged")
        assert header["step"] == 2

    @pytest.mark.parametrize("key", ["out", "curve"])
    def test_missing_output_directory_refused_before_any_step(
            self, tmp_path, monkeypatch, key):
        steps = []
        monkeypatch.setattr(harness, "train_step",
                            lambda *a: steps.append(a) or 0.0)
        path = tmp_path / "absent" / "x"
        cfg = TrainConfig(code="polar_16_8", alpha=1, time_steps=1, depth=1,
                          batch_size=64, steps=2,
                          **{"out": str(tmp_path / "t.ckpt"), key: str(path)})
        with pytest.raises(ValueError, match=(
                f"^{key} = {path} is in no existing directory$")):
            train_estimator(cfg)
        assert steps == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("change", [dict(alpha=4),
                                        dict(code="polar_32_16")],
                             ids=["alpha", "code"])
    def test_resume_of_another_network_refused(self, tmp_path, change):
        # a resume must not train, nor save, a network other than the one
        # its config builds; nothing ran, so no .diverged file is written
        ckpt = tmp_path / "est.ckpt"
        cfg = train_config_from_preset("desk-rnn", code="polar_16_8",
                                       alpha=1, batch_size=64, steps=1,
                                       out=str(ckpt))
        train_estimator(cfg)
        before = ckpt.read_bytes()
        resume = replace(cfg, resume=str(ckpt), **change)
        with pytest.raises(ValueError) as exc:
            train_estimator(resume)
        code = get_code(resume.code)
        assert str(exc.value) == (
            f"resume {ckpt} holds {cfg.model_config(get_code(cfg.code))}; "
            f"this config builds {resume.model_config(code)}")
        assert "alpha=1" in str(exc.value)
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["est.ckpt"]

    # header entry: (key, value or None to delete it, error after the path)
    BAD_ENTRIES = {
        "no-scale": ("input_scale", None, "no 'input_scale' entry"),
        "scale-str": ("input_scale", "x",
                      "input_scale 'x' is not a finite number > 0"),
        "scale-neg": ("input_scale", -1,
                      "input_scale -1 is not a finite number > 0"),
        "scale-nan": ("input_scale", float("nan"),
                      "input_scale nan is not a finite number > 0"),
        "step-str": ("step", "5", "step '5' is not an integer >= 0"),
        "step-neg": ("step", -1, "step -1 is not an integer >= 0"),
    }

    @pytest.mark.parametrize("use", ["decode", "resume"])
    @pytest.mark.parametrize("entry", BAD_ENTRIES)
    def test_bad_training_entry_refused_at_load(self, tmp_path, edit_header,
                                                entry, use):
        # the sha256 covers only the data, so it stays valid
        cfg = TrainConfig(code="polar_16_8", alpha=1, time_steps=1, depth=1,
                          batch_size=64, steps=1, out=str(tmp_path / "t.ckpt"))
        code = get_code(cfg.code)
        ckpt = tmp_path / "est.ckpt"
        save_checkpoint(ckpt, build_estimator(cfg.model_config(code),
                                              np.random.default_rng(0)))
        key, value, error = self.BAD_ENTRIES[entry]

        def edit(header):
            if value is None:
                del header[key]
            else:
                header[key] = value
            return header

        edit_header(ckpt, edit)
        with pytest.raises(CheckpointError) as exc:
            if use == "decode":
                NeuralEstimator.from_checkpoint(ckpt, code)
            else:
                train_estimator(replace(cfg, resume=str(ckpt)))
        assert str(exc.value) == f"{ckpt}: bad header: {error}"
        assert list(tmp_path.iterdir()) == [ckpt]

    def test_one_worker_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"{thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(harness, "available_cores", lambda: 1)
        train_estimator(TrainConfig(code="polar_16_8", alpha=1, time_steps=1,
                                    depth=1, batch_size=600, steps=1,
                                    out=str(tmp_path / "t.ckpt")))
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               ebn0_db=(4.0,), stop=quick_stop(4096))
        assert run_point(cfg, 4.0).frames == 4096

    def test_sbnd_decoder_runs_from_checkpoint(self, tmp_path):
        ckpt = tmp_path / "est.ckpt"
        cfg = TrainConfig(code="polar_16_8", constellation="qam16",
                          arch="rnn", alpha=1, time_steps=2, depth=1,
                          batch_size=64, steps=10, seed=4, out=str(ckpt))
        train_estimator(cfg)
        sim = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               decoder="sbnd", checkpoint=str(ckpt),
                               ebn0_db=(6.0,), stop=quick_stop(2048), seed=5,
                               workers=4)
        r = run_point(sim, 6.0)
        assert r.frames >= 2048
        assert 0 <= r.ber <= 1

    def test_sbnd_checkpoint_for_another_code_rejected(self, tmp_path):
        ckpt = tmp_path / "h74.ckpt"
        net = build_estimator(
            RnnConfig.for_code(7, 4, alpha=1, time_steps=1, depth=1),
            np.random.default_rng(0))
        save_checkpoint(ckpt, net)
        sim = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               decoder="sbnd", checkpoint=str(ckpt),
                               ebn0_db=(6.0,), stop=quick_stop(2048))
        with pytest.raises(ValueError, match=r"\(10, 4\).*\(24, 8\)"):
            run_point(sim, 6.0)


class TestVerifyChannel:
    def test_quick_battery_rows(self):
        rows = verify_channel(seed=0, symmetry_bits=120_000, corr_frames=4_000)
        names = [r.name for r in rows]
        assert any("bpsk@0dB" in n for n in names)
        assert any("psk8@3dB symmetry" in n for n in names)
        assert any("qam16@6dB flip correlation" in n for n in names)
        # the BPSK closed-form row must pass at any sample size
        bpsk = [r for r in rows if "bpsk" in r.name][0]
        assert bpsk.passed

    def test_battery_runs_without_scipy(self, monkeypatch):
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        for kind in ("bpsk", "qpsk", "psk8", "qam16"):
            per, _ = predicted_crossover(build_constellation(kind),
                                         NoiseConfig.from_esn0_db(3.0))
            assert np.all((per > 0) & (per < 0.5))
        rows = verify_channel(seed=0, symmetry_bits=120_000, corr_frames=2_000)
        assert len(rows) == 11
        assert all(np.isfinite(r.value) for r in rows)

    def test_negative_seed_is_refused(self, capsys):
        message = "seed must be >= 0, got -1"
        with pytest.raises(ValueError) as exc:
            verify_channel(seed=-1)
        assert str(exc.value) == message
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-channel", "--seed", "-1", "--quick"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"bicmlab: error: {message}\n"

    def test_battery_runs_on_one_blas_thread(self, monkeypatch):
        get = harness._openblas("get_num_threads")
        set_ = harness._openblas("set_num_threads")
        if get is None or set_ is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        seen = []

        def spy(name):
            real = getattr(harness, name)

            def counted(*args, **kwargs):
                seen.append((name, get()))
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)

        spy("get_code")
        spy("channel_statistics")
        before = get()
        set_(ctypes.c_int(2))
        try:
            caller = get()
            verify_channel(seed=0, symmetry_bits=120_000, corr_frames=2_000)
            assert seen == ([("get_code", 1)]
                            + [("channel_statistics", 1)] * 9)
            assert get() == caller
        finally:
            set_(ctypes.c_int(before))


class TestCli:
    def test_count_params_output(self, capsys):
        rc = cli.main(["count-params", "--preset", "table1-rnn",
                       "code=polar_64_32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6381632" in out

    def test_count_params_transformer(self, capsys):
        rc = cli.main(["count-params", "--preset", "table1-transformer",
                       "code=polar_128_64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2020033" in out

    def test_zero_heads_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count-params", "--preset", "table1-transformer",
                      "code=polar_16_8", "heads=0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "bicmlab: error: heads must be >= 1\n")

    def test_bad_train_value_writes_nothing(self, tmp_path, capsys):
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text("code = polar_16_8\nlog_every = 0\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(cfgfile), "steps=3",
                      f"out={tmp_path / 't.ckpt'}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "bicmlab: error: log_every must be >= 1, got 0\n")
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]

    def test_embed_dim_zero_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count-params", "--preset", "table1-transformer",
                      "code=polar_16_8", "embed_dim=0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "bicmlab: error: embed_dim must be >= 1, got 0\n")

    @pytest.mark.parametrize("content", [b"\xff\xfe7 3\n", b"7 3\n"],
                             ids=["not-ascii", "truncated"])
    def test_bad_alist_code_is_one_line(self, tmp_path, capsys, content):
        path = tmp_path / "bad.alist"
        path.write_bytes(content)
        cfgfile = tmp_path / "osd.cfg"
        cfgfile.write_text(f"code = {path}\ndecoder = osd\nebn0_db = 3\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfgfile)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bicmlab: error: alist file {str(path)!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["missing", "garbage", "flipped-byte",
                                        "truncated", "no-checksum",
                                        "list-header"])
    def test_bad_checkpoint_is_one_line(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "est.ckpt"
        if damage != "missing":
            net = build_estimator(RnnConfig.for_code(16, 8, alpha=1,
                                                     time_steps=1,
                                                     depth=1),
                                  np.random.default_rng(0))
            save_checkpoint(ckpt, net)
            raw = bytearray(ckpt.read_bytes())
            if damage == "garbage":
                raw[:8] = b"garbage!"
            elif damage == "truncated":
                raw = raw[:30]
            elif damage in ("no-checksum", "list-header"):
                header = (b'{"format": 1}' if damage == "no-checksum"
                          else b'[1]')
                raw = raw[:8] + len(header).to_bytes(4, "little") + header
            else:
                raw[-1] ^= 1
            ckpt.write_bytes(bytes(raw))
        cfgfile = tmp_path / "sbnd.cfg"
        cfgfile.write_text(f"code = polar_16_8\nconstellation = qam16\n"
                           f"decoder = sbnd\ncheckpoint = {ckpt}\n"
                           f"ebn0_db = 6\nmax_frames = 2048\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfgfile)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("bicmlab: error: ")
        assert str(ckpt) in err and err.count("\n") == 1

    def test_missing_config_file_is_one_line(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("bicmlab: error: ")
        assert str(missing) in err and err.count("\n") == 1

    def test_simulate_from_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "code = hamming_7_4\nconstellation = bpsk\ndecoder = map\n"
            "ebn0_db = 2\nmin_frame_errors = 0\nmax_frames = 2048\nseed = 6\n")
        out = tmp_path / "r.csv"
        rc = cli.main(["simulate", "--config", str(cfgfile), f"out={out}"])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_counts_match_run_point(self, tmp_path, capsys,
                                             monkeypatch, workers):
        # every chunk and block of simulate sees one BLAS thread, and the
        # caller's count is back afterwards; counts must not move
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "code = polar_16_8\nconstellation = qam16\nebn0_db = 1, 3\n"
            "min_frame_errors = 0\nmax_frames = 6144\nseed = 4\n")
        get = harness._openblas("get_num_threads")
        set_ = harness._openblas("set_num_threads")
        seen = []
        transmit = harness.transmit_batch
        decode = harness.HardPinvDecoder.decode_chunk

        def spy_transmit(*args, **kwargs):
            seen.append(get() if get else None)
            return transmit(*args, **kwargs)

        def spy_decode(self, fb):
            seen.append(get() if get else None)
            return decode(self, fb)

        monkeypatch.setattr(harness, "transmit_batch", spy_transmit)
        monkeypatch.setattr(harness.HardPinvDecoder, "decode_chunk",
                            spy_decode)
        before = get() if get else None
        try:
            if set_:
                set_(ctypes.c_int(2))
            caller = get() if get else None
            assert cli.main(["simulate", "--config", str(cfgfile),
                             f"workers={workers}"]) == 0
            # two points of 3 chunks, each chunk 2 blocks
            assert len(seen) == 2 * 3 * (1 + 2)
            if get:
                assert seen == [1] * len(seen)
                assert get() == caller
        finally:
            if before is not None:
                set_(ctypes.c_int(before))
        rows = capsys.readouterr().out.splitlines()[1:]
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               ebn0_db=(1.0, 3.0), seed=4,
                               stop=StopRule(min_frame_errors=0,
                                             max_frames=6144))
        for row, ebn0 in zip(rows, cfg.ebn0_db, strict=True):
            rec = run_point(cfg, ebn0)
            assert row.split(",")[1:4] == [str(rec.frames),
                                           str(rec.bit_errors),
                                           str(rec.frame_errors)]

    @pytest.mark.parametrize("batch", [64, 512])
    def test_train_limits_blas_threads(self, tmp_path, capsys, monkeypatch,
                                       batch):
        # train_estimator gives BLAS cores // training threads while it
        # runs, for the CLI and a Python caller alike, then puts it back
        get = harness._openblas("get_num_threads")
        seen = []
        step = harness.train_step

        def spy(*args):
            seen.append(get() if get else None)
            return step(*args)

        monkeypatch.setattr(harness, "train_step", spy)
        before = get() if get else None
        try:
            assert cli.main(["train", "code=polar_16_8", "alpha=1",
                             "time_steps=2", "depth=1", "steps=1",
                             f"batch_size={batch}",
                             f"out={tmp_path / 't.ckpt'}"]) == 0
            harness.train_estimator(harness.TrainConfig(
                code="polar_16_8", alpha=1, time_steps=2, depth=1, steps=1,
                batch_size=batch, out=str(tmp_path / "p.ckpt")))
            cores = harness.available_cores()
            workers = min(-(-batch // 256), cores)
            if get:
                assert seen == [max(1, cores // workers)] * 2
                assert get() == before
        finally:
            if before is not None:
                harness._openblas("set_num_threads")(ctypes.c_int(before))

    def test_config_error_is_one_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("code = hamming_7_4\nosd_ordr = 5\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfgfile)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "bicmlab: error: unknown config key 'osd_ordr'\n"

    @pytest.mark.parametrize("command, key", [("train", "out"),
                                              ("train", "curve"),
                                              ("simulate", "out")])
    def test_output_path_that_is_a_directory_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, key):
        work = []
        monkeypatch.setattr(harness, "transmit_batch",
                            lambda *a, **k: work.append(a))
        folder = tmp_path / "d"
        folder.mkdir()
        paths = {"out": str(tmp_path / "t.ckpt"), key: str(folder)}
        argv = {"simulate": ["simulate", "code=polar_16_8", "ebn0_db=3",
                             "max_frames=2048", f"out={paths['out']}"],
                "train": ["train", "code=polar_16_8", "steps=3",
                          "batch_size=64", f"out={paths['out']}",
                          f"curve={paths.get('curve', '')}"]}[command]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"bicmlab: error: {key} = {folder} is a directory\n")
        assert work == []
        assert list(tmp_path.iterdir()) == [folder]
        assert list(folder.iterdir()) == []

    def test_train_cli_writes_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "t.ckpt"
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text(
            "code = polar_16_8\nconstellation = qam16\narch = rnn\n"
            "alpha = 1\ntime_steps = 2\ndepth = 1\nbatch_size = 64\n")
        rc = cli.main(["train", "--config", str(cfgfile), "steps=3",
                       f"out={out}", "seed=1"])
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "parameters" in text

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_outputs_under_a_non_ascii_path(self, tmp_path, capsys, command):
        # config files are read as utf-8, so the CSV header, which echoes the
        # code path, is written as utf-8 too
        folder = tmp_path / "\u00fc"
        folder.mkdir()
        code = folder / "code.alist"
        code.write_text(dump_alist(get_code("polar_16_8").h),
                        encoding="ascii")
        out = folder / "out.csv"
        argv = {"simulate": ["simulate", "ebn0_db=3", "max_frames=2048",
                             f"out={out}"],
                "train": ["train", "alpha=1", "time_steps=2", "depth=1",
                          "batch_size=64", "steps=2",
                          f"out={folder / 't.ckpt'}", f"curve={out}"],
                }[command] + [f"code={code}"]
        assert cli.main(argv) == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first == {"simulate": f"# code={code}",
                         "train": "step,loss"}[command]
        # an output path that is a directory is refused, and leaves no
        # temporary file
        out.unlink()
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not Path(f"{out}.tmp").exists()

    def test_train_settings_reach_the_checkpoint(self, tmp_path, capsys):
        # code, steps, seed, out and curve: each of the old train flags
        out, curve = tmp_path / "t.ckpt", tmp_path / "curve.csv"
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text(
            "code = polar_16_8\nconstellation = qam16\nalpha = 1\n"
            "time_steps = 2\ndepth = 1\nbatch_size = 64\nsteps = 50\n"
            "log_every = 1\n")
        assert cli.main(["train", "--config", str(cfgfile),
                         "code=polar_32_16", "steps=3", "seed=7",
                         f"out={out}", f"curve={curve}"]) == 0
        net, header = load_checkpoint(out)
        assert (net.cfg.r, net.cfg.k) == (2 * 32 - 16, 16)
        assert (header["step"], header["seed"]) == (3, 7)
        rows = curve.read_text().splitlines()
        assert rows[0] == "step,loss"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3"]

    def test_precedence_preset_then_file_then_arguments(self, tmp_path,
                                                        capsys):
        cfgfile = tmp_path / "rnn.cfg"
        cfgfile.write_text("code = polar_16_8\nalpha = 1\ndepth = 2\n")
        assert cli.main(["count-params", "--preset", "table1-rnn",
                         "--config", str(cfgfile), "depth=3"]) == 0
        want = RnnConfig.for_code(16, 8, alpha=1, time_steps=5, depth=3)
        out = capsys.readouterr().out
        assert f"exact weights:       {want.weights()}\n" in out

    def test_simulate_seed_overrides_the_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "code = polar_16_8\nconstellation = qam16\nebn0_db = 2\n"
            "min_frame_errors = 0\nmax_frames = 2048\nseed = 6\n")
        out = tmp_path / "r.csv"
        assert cli.main(["simulate", "--config", str(cfgfile), "seed=9",
                         f"out={out}"]) == 0
        assert "# seed=9" in out.read_text().splitlines()
        rec = run_point(ExperimentConfig(
            code="polar_16_8", constellation="qam16", ebn0_db=(2.0,),
            seed=9, stop=StopRule(min_frame_errors=0, max_frames=2048)), 2.0)
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split(",")[1:4] == [str(rec.frames), str(rec.bit_errors),
                                       str(rec.frame_errors)]

    def test_stdout_rows_are_the_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["simulate", "code=hamming_7_4", "decoder=osd",
                         "ebn0_db=1,3", "min_frame_errors=0",
                         "max_frames=2048", f"out={out}"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == f"wrote {out}"
        table = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert printed[:-1] == table
        assert len(table) == 3 and table[1].split(",")[6] != ""

    @pytest.mark.parametrize("arg, message", [
        ("osd_ordr=5", "unknown config key 'osd_ordr'"),
        ("seed", "expected KEY=VALUE, got 'seed'"),
        ("seed=x", "config key 'seed': bad int value 'x'"),
        ("max_frames=0", "max_frames must be positive"),
    ], ids=["unknown", "no-equals", "bad-int", "out-of-range"])
    def test_bad_argument_is_one_line(self, capsys, arg, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", arg])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"bicmlab: error: {message}\n"

    def test_key_the_arch_does_not_read_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count-params", "--preset", "table1-rnn", "heads=16"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "bicmlab: error: heads = 16 is not read by arch 'rnn'\n")

    def test_hash_in_an_argument_names_the_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "code = hamming_7_4  # a comment after whitespace\n"
            "ebn0_db = 2\nmin_frame_errors = 0\nmax_frames = 2048\n")
        out = tmp_path / "run#3.csv"
        assert cli.main(["simulate", "--config", str(cfgfile),
                         f"out={out}"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "exp.cfg", "run#3.csv"]

    @pytest.mark.parametrize("argv", [
        ["seed=3", "--config", "{cfg}", "max_frames=2048"],
        ["--config", "{cfg}", "seed=3", "max_frames=2048"],
        ["seed=3", "max_frames=2048", "--config", "{cfg}"],
        ["seed=1", "--config", "{cfg}", "seed=2", "max_frames=2048",
         "seed=3"],
    ], ids=["between", "after", "before", "last-wins"])
    def test_settings_before_between_and_after_options(self, tmp_path,
                                                       capsys, argv):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("code = hamming_7_4\nebn0_db = 2\nseed = 9\n"
                           "min_frame_errors = 0\nmax_frames = 4096\n")
        out = tmp_path / "r.csv"
        argv = [a.format(cfg=cfgfile) for a in argv]
        assert cli.main(["simulate", *argv, f"out={out}"]) == 0
        text = out.read_text().splitlines()
        assert "# seed=3" in text
        assert text[-1].split(",")[1] == "2048"

    @pytest.mark.parametrize("argv, bad", [
        (["simulate", "seed=1", "--bogus", "max_frames=2048"], "--bogus"),
        (["simulate", "--config", "x.cfg", "seed=1", "--bogus"], "--bogus"),
        (["verify-channel", "seed=1"], "seed=1"),
    ], ids=["simulate-between", "simulate-after", "no-settings"])
    def test_unknown_argument_is_a_usage_error(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        errors = [l for l in capsys.readouterr().err.splitlines()
                  if l.startswith("bicmlab: error:")]
        assert errors == [f"bicmlab: error: unrecognized arguments: {bad}"]

    def test_named_flags(self):
        sub = next(a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        assert flags == {"simulate": ["--config"],
                         "train": ["--config", "--preset"],
                         "count-params": ["--config", "--preset"],
                         "verify-channel": ["--quick", "--seed"]}
        assert {name for name, p in sub.choices.items()
                if any(a.metavar == "KEY=VALUE" for a in p._actions)} == {
                    "simulate", "train", "count-params"}
