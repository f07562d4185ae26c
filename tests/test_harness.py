"""Experiment runner: determinism, decoder equivalence, CSV schema,
config parsing, training entry points, and the CLI."""

from dataclasses import replace

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
from bicmlab.neural import (
    RnnConfig,
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
            "max_frames = 4096\npad = yes\n")
        cfg = ExperimentConfig(**config_kwargs(ExperimentConfig, kv))
        assert cfg.code == "hamming_7_4"
        assert cfg.ebn0_db == (1.0, 2.0, 3.0)
        assert cfg.workers == 2
        assert cfg.pad is True
        assert cfg.stop == StopRule(max_frames=4096)

    def test_train_keys_typed(self):
        kv = parse_config_text("arch = transformer\nlr = 0.01\nsteps = 7\n")
        assert config_kwargs(TrainConfig, kv) == dict(
            arch="transformer", lr=0.01, steps=7)

    @pytest.mark.parametrize("cls", [ExperimentConfig, TrainConfig])
    def test_unknown_key_rejected(self, cls):
        with pytest.raises(ValueError, match="osd_ordr"):
            config_kwargs(cls, {"osd_ordr": "5"})

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

    def test_pinned_interleaver_mode(self):
        cfg = ExperimentConfig(code="polar_16_8", constellation="qam16",
                               decoder="hard-pinv", ebn0_db=(4.0,),
                               interleaver="pinned", interleaver_seed=3,
                               stop=quick_stop(2048), seed=2)
        r = run_point(cfg, 4.0)
        assert r.frames >= 2048


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
        from bicmlab.gf2code import get_code
        model_cfg = cfg.model_config(get_code("polar_128_64"))
        assert count_params_rnn(model_cfg) == 25_512_064

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


class TestCli:
    def test_count_params_output(self, capsys):
        rc = cli.main(["count-params", "--arch", "rnn", "--code",
                       "polar_64_32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6381632" in out

    def test_count_params_transformer(self, capsys):
        rc = cli.main(["count-params", "--arch", "transformer", "--code",
                       "polar_128_64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2020033" in out

    def test_simulate_from_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "code = hamming_7_4\nconstellation = bpsk\ndecoder = map\n"
            "ebn0_db = 2\nmin_frame_errors = 0\nmax_frames = 2048\nseed = 6\n")
        out = tmp_path / "r.csv"
        rc = cli.main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_train_cli_writes_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "t.ckpt"
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text(
            "code = polar_16_8\nconstellation = qam16\narch = rnn\n"
            "alpha = 1\ntime_steps = 2\ndepth = 1\nbatch_size = 64\n")
        rc = cli.main(["train", "--config", str(cfgfile), "--steps", "3",
                       "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "parameters" in text
