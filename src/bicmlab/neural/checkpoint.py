"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic b"BICMNET1"
    bytes 8..11   uint32 header length H
    bytes 12..    H bytes of UTF-8 JSON header
    then          raw parameter blocks, concatenated in header order

The header carries: format version, architecture tag, the model config,
training metadata (step, seed, input_scale), a block table of
(name, dtype, shape, offset, nbytes) relative to the data section, and the
sha256 of the data section.  No timestamps: a save/load/save round trip is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .models import (
    RnnConfig,
    TransformerConfig,
    build_rnn_estimator,
    build_transformer_estimator,
)

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"BICMNET1"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, net, *, input_scale: float = 1.0, step: int = 0,
                    seed: int | None = None) -> None:
    params = net.params()
    blocks = []
    offset = 0
    chunks = []
    sha = hashlib.sha256()
    for p in params:
        raw = np.ascontiguousarray(p.value).tobytes()
        blocks.append({
            "name": p.name,
            "dtype": str(p.value.dtype),
            "shape": list(p.value.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        sha.update(raw)
        offset += len(raw)
    header = {
        "format": 1,
        "arch": net.arch,
        "config": asdict(net.cfg),
        "input_scale": float(input_scale),
        "step": int(step),
        "seed": seed,
        "params": blocks,
        "sha256": sha.hexdigest(),
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    _write_atomic(path, [MAGIC, len(hbytes).to_bytes(4, "little"), hbytes,
                         *chunks])


def _write_atomic(path, chunks) -> None:
    """Write the byte chunks to path through a temporary file, so path is
    never half written; a failed write or rename removes the temporary
    file."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for raw in chunks:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[object, dict]:
    """Rebuild the network from a checkpoint; returns (net, header).

    A file that is not a well-formed checkpoint raises CheckpointError
    naming it, as does a header whose input_scale is not a finite number
    > 0 or whose step is not an integer >= 0."""
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        hlen = int.from_bytes(fh.read(4), "little")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad header: {exc}") from None
        data = fh.read()
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: bad header: not a JSON object")
    if header.get("format") != 1:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {header.get('format')}")
    sha = hashlib.sha256(data).hexdigest()
    if sha != header.get("sha256"):
        raise CheckpointError(f"{path}: data corrupted (checksum mismatch)")
    # every entry below comes from the file, so a wrong type or a missing
    # key is a malformed header
    try:
        _check_training_entries(header)
        return _rebuild(header, data), header
    except KeyError as exc:
        raise CheckpointError(f"{path}: bad header: no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc}") from None


def _check_training_entries(header: dict) -> None:
    """ValueError unless input_scale, which decoding and a resume apply, is
    a finite number > 0 and step, where a resume goes on, an integer >= 0."""
    scale, step = header["input_scale"], header["step"]
    if (isinstance(scale, bool) or not isinstance(scale, (int, float))
            or not (math.isfinite(scale) and scale > 0)):
        raise ValueError(f"input_scale {scale!r} is not a finite number > 0")
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise ValueError(f"step {step!r} is not an integer >= 0")


def _rebuild(header: dict, data: bytes):
    """The network a format-1 header describes, with its weights from data."""
    rng = np.random.default_rng(0)  # weights are overwritten below
    if header["arch"] == "rnn":
        net = build_rnn_estimator(RnnConfig(**header["config"]), rng)
    elif header["arch"] == "transformer":
        net = build_transformer_estimator(
            TransformerConfig(**header["config"]), rng)
    else:
        raise ValueError(f"unknown architecture {header['arch']!r}")

    by_name = {p.name: p for p in net.params()}
    if set(by_name) != {b["name"] for b in header["params"]}:
        raise ValueError("parameter names do not match architecture")
    for blk in header["params"]:
        p = by_name[blk["name"]]
        start, end = blk["offset"], blk["offset"] + blk["nbytes"]
        if not 0 <= start <= end <= len(data):
            raise ValueError(f"block {blk['name']} runs past the data")
        arr = np.frombuffer(data[start:end], dtype=blk["dtype"])
        arr = arr.reshape(blk["shape"])
        if arr.shape != p.value.shape:
            raise ValueError(f"shape mismatch for {blk['name']}")
        p.value = arr.astype(p.value.dtype).copy()
    return net
