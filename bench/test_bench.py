"""Tests of the benchmark itself: golden counts, the reproducibility
contract, span tracing and the empty-checkout exit.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from bicmlab import bicm, harness, modem  # noqa: E402
from bicmlab.harness import ExperimentConfig, StopRule  # noqa: E402

SWEEPS = [w for w in wl.WORKLOADS.values() if w.kind == "sweep"]


@pytest.mark.parametrize("workload", SWEEPS, ids=lambda w: w.name)
def test_golden_counts_match_at_one_and_two_workers(workload, tmp_path):
    golden = wl.load_golden()
    seed = 1
    extra = workload.prepare(str(tmp_path))
    one = workload.run(seed, extra, str(tmp_path), workers=1).counts
    two = workload.run(seed, extra, str(tmp_path), workers=2).counts
    assert one == two
    workload.check(two, wl.golden_for(golden, workload.name, seed))


def test_train_run_matches_golden_losses(tmp_path):
    workload = wl.WORKLOADS["train-rnn"]
    seed = 1
    res = workload.run(seed, {}, str(tmp_path))
    workload.check(res.counts, wl.golden_for(wl.load_golden(), workload.name,
                                             seed))


def test_golden_table_covers_reference_seed():
    golden = wl.load_golden()
    for name in wl.WORKLOADS:
        assert wl.golden_for(golden, name, wl.REFERENCE_SEED) is not None


def test_check_rejects_changed_counts():
    workload = wl.WORKLOADS["pinv-qam16"]
    want = wl.golden_for(wl.load_golden(), workload.name, 0)
    with pytest.raises(wl.CheckFailed):
        workload.check(dict(want, bit_errors=want["bit_errors"] + 1), want)


def test_self_time_subtracts_children():
    # (id, parent, name, thread, op, start, end, batch)
    recorded = [(1, 0, "a", 7, 1, 0.0, 10.0, 0),
                (2, 1, "b", 7, 1, 1.0, 4.0, 0),
                (3, 1, "b", 7, 1, 5.0, 6.0, 0),
                (4, 2, "c", 7, 1, 2.0, 3.0, 0)]
    assert spans.self_times(recorded) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_tracer_follows_pool_threads_and_restores_names():
    tracer = spans.Tracer()
    cfg = ExperimentConfig(code="hamming_7_4", constellation="bpsk",
                           decoder="hard-pinv", ebn0_db=(3.0,),
                           stop=StopRule(min_frame_errors=0,
                                         max_frames=2 * harness.CHUNK_FRAMES),
                           workers=2)
    tracer.begin_op("sweep", harness.CHUNK_FRAMES)
    try:
        rec = harness.run_point(cfg, 3.0)
    finally:
        tracer.uninstall()
    tracer.end_op(rec.seconds, rec.frames, cfg.workers)
    assert bicm.demap is modem.demap
    assert harness.transmit_batch is bicm.transmit_batch

    by_id = {s[0]: s for s in tracer.spans}
    demaps = [s for s in tracer.spans if s[2] == "modem.demap"]
    assert demaps
    for s in demaps:
        parent = by_id[s[1]]
        assert parent[2] == "bicm.transmit_batch"
        assert parent[3] == s[3] != threading.get_ident()
    metrics = spans.per_layer_metrics(tracer, None)
    assert metrics["harness.chunks_transmitted"] >= 2
    assert 0 < metrics["harness.chunk_useful_ratio"] <= 1
    assert metrics["modem.demap_ms"] > 0


def test_train_step_figures_leave_out_the_calibration_draw(tmp_path):
    workload = wl.Train("tiny-train", "hamming_7_4", "bpsk", "maxlog",
                        batch_size=64, steps=3)
    tracer = spans.Tracer()
    tracer.begin_op(workload.kind, workload.batch_size)
    try:
        res = workload.run(0, {}, str(tmp_path))
    finally:
        tracer.uninstall()
    tracer.end_op(res.wall_s, res.frames, workload.workers)

    transmits = [s for s in tracer.spans if s[2] == "bicm.transmit_batch"]
    assert sorted(s[7] for s in transmits) == [64, 64, 64, 4096]
    kept = spans.unit_spans(tracer)
    assert [s[7] for s in kept if s[2] == "bicm.transmit_batch"] == [64] * 3
    assert sum(s[2] == "gf2code.encode" for s in kept) == 3
    metrics = spans.per_layer_metrics(tracer, None)
    assert metrics["harness.chunks_transmitted"] == 0
    assert metrics["harness.chunk_useful_ratio"] == 0
    assert metrics["bicm.transmit_batch_ms"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pinv-qam16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
