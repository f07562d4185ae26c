"""Experiment runner: determinism, decoder equivalence, CSV schema,
config parsing, training entry points, and the CLI."""

import argparse
import ctypes
import os
import shlex
import resource
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bicmlab import cli, harness
from bicmlab.harness import (
    ExperimentConfig,
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
from bicmlab.gf2code import get_code
from bicmlab.modem import NoiseConfig, build_constellation
from bicmlab.neural import (
    RnnConfig,
    RnnEstimator,
    TransformerEstimator,
    build_rnn_estimator,
    count_params_rnn,
    load_checkpoint,
    save_checkpoint,
)


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
            args = parser.parse_args(shlex.split(line)[1:])
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

    def test_worker_count_does_not_change_totals(self):
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
    def test_no_chunk_past_frame_budget(self, monkeypatch, chunks, workers):
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
        assert count_params_rnn(model_cfg) == 25_512_064

    @pytest.mark.parametrize("preset, net_type", [
        ("desk-rnn", RnnEstimator),
        ("desk-transformer", TransformerEstimator),
    ])
    def test_build_network_follows_arch(self, preset, net_type):
        cfg = train_config_from_preset(preset)
        code = get_code(cfg.code)
        net = cfg.build_network(code, np.random.default_rng(0))
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
        net = build_rnn_estimator(
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
            net = build_rnn_estimator(RnnConfig.for_code(16, 8, alpha=1,
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
    def test_simulate_counts_match_run_point(self, tmp_path, capsys, workers):
        # simulate gives BLAS cores // workers threads; counts must not move
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "code = polar_16_8\nconstellation = qam16\nebn0_db = 1, 3\n"
            "min_frame_errors = 0\nmax_frames = 6144\nseed = 4\n")
        get = cli._openblas("get_num_threads")
        before = get() if get else None
        try:
            assert cli.main(["simulate", "--config", str(cfgfile),
                             f"workers={workers}"]) == 0
            if get:
                assert get() == max(1, len(os.sched_getaffinity(0)) // workers)
        finally:
            if before is not None:
                cli._openblas("set_num_threads")(ctypes.c_int(before))
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

    def test_config_error_is_one_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("code = hamming_7_4\nosd_ordr = 5\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfgfile)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "bicmlab: error: unknown config key 'osd_ordr'\n"

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
        assert f"exact weights:       {count_params_rnn(want)}\n" in out

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
