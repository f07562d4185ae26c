"""Span tracing of bicmlab from outside the package.

``Tracer.install`` replaces each traced name where its caller looks it up
(a module global such as ``bicmlab.bicm.demap``, or a method on a class) by
a wrapper that records one span per call: name, start, end, parent span,
thread and operation id.  The harness runs chunks on pool threads, so the
parent stack is thread-local.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its children;
children always run on the parent's thread, nested inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from bicmlab import bicm, harness, refdec, sbnd
from bicmlab.gf2code import LinearCode
from bicmlab.neural import Adam
from bicmlab.neural.attention import EncoderLayer, MultiHeadSelfAttention
from bicmlab.neural.flops import encoder_layer_flops
from bicmlab.neural.layers import Dense, GRULayer, LayerNorm
from bicmlab.neural.models import RnnEstimator, TransformerEstimator

# (owner, attribute, span name, index of the argument that gives the batch
# size, as an int or as an array's leading dimension, or None)
TARGETS = [
    (harness, "get_code", "harness.get_code", None),
    (harness, "make_decoder", "harness.make_decoder", None),
    (harness, "transmit_batch", "bicm.transmit_batch", 4),
    (harness, "statistic_batch", "sbnd.statistic_batch", None),
    (harness, "train_step", "neural.train_step", None),
    (harness.HardPinvDecoder, "decode_chunk", "harness.decode_chunk", None),
    (harness.OsdDecoder, "decode_chunk", "harness.decode_chunk", None),
    (harness.SbndDecoder, "decode_chunk", "harness.decode_chunk", None),
    (harness.NeuralEstimator, "predict", "neural.predict", None),
    (bicm, "modulate", "modem.modulate", None),
    (bicm, "awgn", "modem.awgn", None),
    (bicm, "demap", "modem.demap", None),
    (bicm, "clamp_llrs", "modem.clamp_llrs", None),
    (bicm, "hard_split", "modem.hard_split", None),
    (sbnd, "hard_split", "modem.hard_split", None),
    (sbnd, "statistic_batch", "sbnd.statistic_batch", None),
    (LinearCode, "encode", "gf2code.encode", None),
    (LinearCode, "syndrome", "gf2code.syndrome", None),
    (LinearCode, "p_inv_apply", "gf2code.p_inv_apply", None),
    (refdec, "osd_decode", "refdec.osd_decode", None),
    (refdec, "ml_bound_update", "refdec.ml_bound_update", None),
    (RnnEstimator, "predict", "neural.net.predict", None),
    (TransformerEstimator, "predict", "neural.net.predict", None),
    (EncoderLayer, "forward", "neural.encoder.forward", 1),
    (MultiHeadSelfAttention, "forward", "neural.attention.forward", None),
    (LayerNorm, "forward", "neural.layernorm.forward", None),
    (Dense, "forward", "neural.dense.forward", None),
    (Dense, "backward", "neural.dense.backward", None),
    (GRULayer, "forward", "neural.gru.forward", None),
    (GRULayer, "backward", "neural.gru.backward", None),
    (Adam, "step", "neural.adam.step", None),
]


class Tracer:
    def __init__(self):
        # (span id, parent id, name, thread, op id, start, end, batch)
        self.spans: list[tuple] = []
        self.ops: dict[int, dict] = {}
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, size_arg: int | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                batch = 0 if size_arg is None else args[size_arg]
                if not isinstance(batch, int):
                    batch = batch.shape[0]
                self.spans.append((sid, parent, name, threading.get_ident(),
                                   self.op, t0, t1, batch))
        return traced

    def install(self) -> None:
        for owner, attr, name, size_arg in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, size_arg))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_op(self, kind: str, batch: int) -> None:
        """Start tracing one operation run from this thread.

        ``batch`` is the frames of one unit's ``transmit_batch``: a chunk on
        a sweep, a step's batch on a training run.
        """
        self.op = max(self.ops, default=0) + 1
        self.ops[self.op] = {"kind": kind, "batch": batch,
                             "thread": threading.get_ident()}
        self.install()

    def end_op(self, wall_s: float, frames: int, workers: int) -> None:
        self.ops[self.op].update(wall_s=wall_s, frames=frames, workers=workers)

    def drop_op(self) -> None:
        """Forget a failed operation, whose spans would skew the layers."""
        if self.ops and "wall_s" not in self.ops[self.op]:
            del self.ops[self.op]
            self.spans = [s for s in self.spans if s[4] != self.op]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, thread, op, t0, t1, batch in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "thread": thread, "op": op, "start": t0, "end": t1,
                    "batch": batch}) + "\n")


def self_times(spans) -> dict[int, float]:
    child = defaultdict(float)
    for sid, parent, _, _, _, t0, t1, _ in spans:
        child[parent] += t1 - t0
    return {s[0]: (s[6] - s[5]) - child[s[0]] for s in spans}


def unit_spans(tracer: Tracer) -> list[tuple]:
    """The spans without any transmit of another size than the op's unit.

    ``train_estimator`` draws one 4096-frame calibration batch before its
    first step; that ``transmit_batch`` and the spans under it are no part
    of a training step.
    """
    parent = {s[0]: s[1] for s in tracer.spans}
    dropped = {s[0] for s in tracer.spans if s[2] == "bicm.transmit_batch"
               and s[7] != tracer.ops[s[4]]["batch"]}

    def kept(sid):
        while sid:
            if sid in dropped:
                return False
            sid = parent.get(sid, 0)
        return True

    return [s for s in tracer.spans if kept(s[0])]


def layer_table(spans) -> dict[str, dict]:
    """Per span name: calls, summed span seconds and summed self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "span_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s[2]]
        row["calls"] += 1
        row["span_s"] += s[6] - s[5]
        row["self_s"] += own[s[0]]
    return dict(table)


def per_layer_metrics(tracer: Tracer, model_cfg) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the recorded spans.

    Times per unit are summed self time per transmitted chunk on a sweep and
    per training step on train-rnn, without the calibration draw
    (``unit_spans``).  A layer that does not run on the workload reads 0.
    """
    table = layer_table(unit_spans(tracer))
    ops = list(tracer.ops.values())
    sweep_ops = [op for op in ops if op["kind"] == "sweep"]
    n_ops = len(ops)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def span_s(name):
        return table.get(name, {}).get("span_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    transmits = calls("bicm.transmit_batch")
    units = transmits if sweep_ops else calls("neural.train_step")

    def per_unit_ms(name):
        return ratio(1e3 * self_s(name), units)

    m = {
        "harness.chunks_transmitted": ratio(transmits, len(sweep_ops)),
        "harness.chunk_useful_ratio": ratio(
            sum(op["frames"] for op in sweep_ops),
            harness.CHUNK_FRAMES * transmits) if sweep_ops else 0.0,
        "harness.worker_busy_share": _busy_share(tracer, sweep_ops),
        "harness.decode_chunk_ms": ratio(1e3 * span_s("harness.decode_chunk"),
                                         calls("harness.decode_chunk")),
        "harness.point_setup_ms": ratio(
            1e3 * (span_s("harness.get_code") + span_s("harness.make_decoder")),
            len(sweep_ops)) if sweep_ops else 0.0,
        "bicm.transmit_batch_ms": ratio(1e3 * span_s("bicm.transmit_batch"),
                                        transmits),
        "bicm.transmit_self_ms": ratio(1e3 * self_s("bicm.transmit_batch"),
                                       transmits),
        "refdec.osd_decode_us": ratio(1e6 * self_s("refdec.osd_decode"),
                                      calls("refdec.osd_decode")),
        "refdec.osd_decode_calls": ratio(calls("refdec.osd_decode"), n_ops),
        "refdec.ml_bound_update_us": ratio(
            1e6 * self_s("refdec.ml_bound_update"),
            calls("refdec.ml_bound_update")),
        "gf2code.p_inv_apply_calls": ratio(calls("gf2code.p_inv_apply"), units),
        "neural.predict_ms": ratio(1e3 * span_s("neural.predict"),
                                   calls("neural.predict")),
        "neural.predict_wait_ms": ratio(1e3 * self_s("neural.predict"),
                                        calls("neural.predict")),
        "neural.encoder.gflops": _encoder_gflops(tracer, model_cfg),
        "neural.train_step_ms": ratio(1e3 * span_s("neural.train_step"),
                                      calls("neural.train_step")),
    }
    for name in ("modem.demap", "modem.modulate", "modem.awgn",
                 "modem.hard_split", "modem.clamp_llrs", "gf2code.encode",
                 "gf2code.syndrome", "gf2code.p_inv_apply",
                 "sbnd.statistic_batch", "neural.attention.forward",
                 "neural.encoder.forward", "neural.layernorm.forward",
                 "neural.dense.forward", "neural.gru.forward",
                 "neural.gru.backward", "neural.dense.backward",
                 "neural.adam.step"):
        m[name + "_ms"] = per_unit_ms(name)
    return m


def _busy_share(tracer: Tracer, sweep_ops) -> float:
    """Summed top-level span time on pool threads / (workers x wall)."""
    busy = defaultdict(float)
    for _, parent, _, thread, op, t0, t1, _ in tracer.spans:
        if parent == 0 and thread != tracer.ops[op]["thread"]:
            busy[op] += t1 - t0
    capacity = sum(op["workers"] * op["wall_s"] for op in sweep_ops)
    ids = [i for i, op in tracer.ops.items() if op["kind"] == "sweep"]
    return sum(busy[i] for i in ids) / capacity if capacity else 0.0


def _encoder_gflops(tracer: Tracer, model_cfg) -> float:
    if model_cfg is None:
        return 0.0
    per_frame = encoder_layer_flops(model_cfg.r, model_cfg.embed_dim,
                                    model_cfg.heads)
    flops = secs = 0.0
    for s in tracer.spans:
        if s[2] == "neural.encoder.forward":
            flops += per_frame * s[7]
            secs += s[6] - s[5]
    return flops / secs / 1e9 if secs else 0.0


def format_table(tracer: Tracer) -> str:
    """Self-time table, largest first, as a share of traced op wall time."""
    table = layer_table(tracer.spans)
    wall = sum(op["wall_s"] for op in tracer.ops.values())
    lines = [f"{'span':28s} {'calls':>8s} {'self s':>9s} {'self %':>7s} "
             f"{'span s':>9s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:28s} {row['calls']:8d} {row['self_s']:9.3f} "
                     f"{100 * row['self_s'] / wall:7.2f} {row['span_s']:9.3f}")
    lines.append(f"{'(traced op wall)':28s} {len(tracer.ops):8d} {wall:9.3f}")
    return "\n".join(lines)
