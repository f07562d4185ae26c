"""The four benchmark workloads and the checks on their outputs.

Each workload turns a seed into the configs the program receives, runs one
operation (one sweep point through ``harness.run_point`` or one training run
through ``harness.train_estimator``) and checks its result against the
golden counts in ``golden.json``.  Importing this module needs ``bicmlab`` on
``sys.path``; ``run.py`` arranges that after pinning the BLAS threads.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from bicmlab import harness
from bicmlab.gf2code import get_code
from bicmlab.harness import ExperimentConfig, StopRule, TrainConfig
from bicmlab.neural import (
    TransformerConfig,
    build_transformer_estimator,
    load_checkpoint,
    save_checkpoint,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

# The warm-up runs at this seed, so every run checks one point exactly
# against golden.json whatever --seed it was given.
REFERENCE_SEED = 0
SWEEP_WORKERS = 2

# sbnd-transformer runs a float32 network: a reordered float32 sum may move
# a logit that sits next to zero across the threshold, so its counts may
# drift by a few bits.  Golden counts must lie within this many errors.
SBND_ABS_TOL = 8
SBND_REL_TOL = 2e-3
# train-rnn losses are float32 training over a few Adam steps.
TRAIN_LOSS_RTOL = 1e-3


class CheckFailed(Exception):
    """An operation ran but its output does not match what was expected."""


@dataclass(frozen=True)
class OpResult:
    wall_s: float
    frames: int
    counts: dict


@dataclass(frozen=True)
class Sweep:
    """One Eb/N0 point with a fixed frame budget (no error target)."""

    name: str
    code: str
    constellation: str
    demap: str
    decoder: str
    ebn0_db: float
    budget_chunks: int
    osd_order: int = 2
    weight_seed: int | None = None   # sbnd: checkpoint weights

    kind = "sweep"
    workers = SWEEP_WORKERS
    batch_size = harness.CHUNK_FRAMES   # frames per transmit_batch call

    @property
    def budget_frames(self) -> int:
        return self.budget_chunks * harness.CHUNK_FRAMES

    def model_config(self) -> TransformerConfig | None:
        if self.decoder != "sbnd":
            return None
        code = get_code(self.code)
        return TransformerConfig.for_code(code.n, code.k, embed_dim=32,
                                          heads=4, encoders=2)

    def prepare(self, workdir: str) -> dict:
        """Write what the program loads; returns the extra config fields."""
        if self.decoder != "sbnd":
            return {}
        net = build_transformer_estimator(
            self.model_config(), np.random.default_rng(self.weight_seed))
        path = os.path.join(workdir, f"{self.name}.ckpt")
        save_checkpoint(path, net, seed=self.weight_seed)
        return {"checkpoint": path}

    def config(self, seed: int, extra: dict, workers: int | None = None
               ) -> ExperimentConfig:
        return ExperimentConfig(
            code=self.code, constellation=self.constellation,
            decoder=self.decoder, osd_order=self.osd_order,
            ebn0_db=(self.ebn0_db,), demap=self.demap, interleaver="fresh",
            stop=StopRule(min_frame_errors=0, min_bit_errors=0,
                          max_frames=self.budget_frames),
            seed=seed, workers=workers or self.workers, **extra)

    def run(self, seed: int, extra: dict, workdir: str,
            workers: int | None = None) -> OpResult:
        cfg = self.config(seed, extra, workers)
        t0 = time.perf_counter()
        rec = harness.run_point(cfg, self.ebn0_db, point_index=0)
        wall = time.perf_counter() - t0
        counts = {"frames": rec.frames, "bit_errors": rec.bit_errors,
                  "frame_errors": rec.frame_errors}
        if rec.ml_bound_ber is not None:
            counts["ml_bit_errors"] = round(
                rec.ml_bound_ber * rec.frames * get_code(self.code).k)
        return OpResult(wall, rec.frames, counts)

    def check(self, got: dict, want: dict | None) -> None:
        if got["frames"] != self.budget_frames:
            raise CheckFailed(
                f"frames {got['frames']} != budget {self.budget_frames}")
        if want is None:
            return
        for key, ref in want.items():
            if self.decoder == "sbnd":
                tol = max(SBND_ABS_TOL, SBND_REL_TOL * ref)
                if abs(got[key] - ref) > tol:
                    raise CheckFailed(f"{key} {got[key]} not within {tol:g} "
                                      f"of golden {ref}")
            elif got[key] != ref:
                raise CheckFailed(f"{key} {got[key]} != golden {ref}")


@dataclass(frozen=True)
class Train:
    """One desk-rnn training run of a fixed step count."""

    name: str
    code: str
    constellation: str
    demap: str
    batch_size: int
    steps: int

    kind = "train"
    workers = 1

    def model_config(self):
        return None

    def prepare(self, workdir: str) -> dict:
        return {}

    def config(self, seed: int, workdir: str) -> TrainConfig:
        return harness.train_config_from_preset(
            "desk-rnn", code=self.code, constellation=self.constellation,
            demap=self.demap, batch_size=self.batch_size, steps=self.steps,
            seed=seed, log_every=1,
            out=os.path.join(workdir, f"{self.name}.ckpt"),
            curve=os.path.join(workdir, f"{self.name}.curve.csv"))

    def run(self, seed: int, extra: dict, workdir: str,
            workers: int | None = None) -> OpResult:
        cfg = self.config(seed, workdir)
        t0 = time.perf_counter()
        out = harness.train_estimator(cfg)
        wall = time.perf_counter() - t0
        with open(cfg.curve, encoding="ascii") as fh:
            losses = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
        net, header = load_checkpoint(out)
        probe = np.random.default_rng(0).standard_normal(
            (8, net.cfg.r)).astype(np.float32)
        counts = {"losses": losses, "step": header["step"],
                  "reload_finite": bool(np.all(np.isfinite(net.predict(probe))))}
        return OpResult(wall, self.steps * self.batch_size, counts)

    def check(self, got: dict, want: dict | None) -> None:
        losses = got["losses"]
        if len(losses) != self.steps or not all(map(math.isfinite, losses)):
            raise CheckFailed(f"loss curve not {self.steps} finite values")
        if got["step"] != self.steps or not got["reload_finite"]:
            raise CheckFailed("checkpoint did not reload to a finite network")
        if want is None:
            return
        for i, (a, b) in enumerate(zip(losses, want["losses"])):
            if abs(a - b) > TRAIN_LOSS_RTOL * abs(b):
                raise CheckFailed(f"loss at step {i + 1} {a} not within "
                                  f"{TRAIN_LOSS_RTOL:g} of golden {b}")


WORKLOADS = {w.name: w for w in (
    Sweep("pinv-qam16", "polar_128_64", "qam16", "exact", "hard-pinv",
          ebn0_db=4.0, budget_chunks=16),
    Sweep("osd2-qpsk", "polar_64_32", "qpsk", "maxlog", "osd",
          ebn0_db=3.0, budget_chunks=1),
    Sweep("sbnd-transformer", "polar_32_16", "qpsk", "maxlog", "sbnd",
          ebn0_db=3.0, budget_chunks=1, weight_seed=1234),
    Train("train-rnn", "polar_64_32", "qam16", "exact",
          batch_size=512, steps=20),
)}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(golden: dict, workload: str, seed: int) -> dict | None:
    return golden.get(workload, {}).get(str(seed))


def check_op(workload, res: OpResult, golden: dict, seed: int,
             first: OpResult | None) -> None:
    """Golden counts where recorded; always the same counts on a repeat."""
    workload.check(res.counts, golden_for(golden, workload.name, seed))
    if first is not None and res.counts != first.counts:
        raise CheckFailed(f"repeat gave {res.counts}, first run gave "
                          f"{first.counts}")
