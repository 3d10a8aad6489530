"""Versioned binary checkpoints.

Layout: 8-byte magic, u32 format version, u32 header length, UTF-8
JSON header (config echo, seed, tensor directory with shapes, freeze
flags, dtypes and byte offsets), then raw little-endian float payloads
in directory order. Everything is explicit-endian, so files are
bit-exact across platforms.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .backbone import VideoViT
from .config import ExperimentConfig, TrainConfig, config_echo, experiment_from_echo
from .errors import CheckpointError

MAGIC = b"FEADCKPT"
VERSION = 1


def _default_echo(model: VideoViT) -> dict:
    freeze = "adapter" if model.cfg.adapter.active(model.cfg.depth) else "linear_probe"
    exp = ExperimentConfig(model=model.cfg, train=TrainConfig(freeze=freeze))
    return config_echo(exp)


def save_checkpoint(model: VideoViT, path: str, echo: dict | None = None) -> None:
    """Write every model tensor bit-exactly, with its freeze flag."""
    wire_dtype = "<f8" if model.dtype == np.float64 else "<f4"
    entries = []
    blobs = []
    offset = 0
    for name in sorted(model.params):
        t = model.params[name]
        blob = np.ascontiguousarray(t.data).astype(wire_dtype, copy=False).tobytes()
        entries.append({
            "name": name,
            "shape": list(t.shape),
            "trainable": bool(t.requires_grad),
            "dtype": wire_dtype,
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)
    header = {
        "seed": model.seed,
        "config": echo if echo is not None else _default_echo(model),
        "tensors": entries,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def read_checkpoint_header(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
            raw = fh.read(8)
            if len(raw) < 8:
                raise CheckpointError(f"{path}: truncated before header")
            version, hlen = struct.unpack("<II", raw)
            if version != VERSION:
                raise CheckpointError(
                    f"{path}: unsupported format version {version}, expected {VERSION}")
            head = fh.read(hlen)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from exc
    if len(head) < hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header (not a JSON object)")
    header["_payload_start"] = len(MAGIC) + 8 + hlen
    return header


def _read_tensor(payload: bytes, entry: dict, path: str) -> np.ndarray:
    lo, n = entry["offset"], entry["nbytes"]
    if lo + n > len(payload):
        raise CheckpointError(f"{path}: truncated payload at tensor {entry['name']!r}")
    arr = np.frombuffer(payload[lo:lo + n], dtype=entry["dtype"])
    expected = int(np.prod(entry["shape"])) if entry["shape"] else 1
    if arr.size != expected:
        raise CheckpointError(f"{path}: tensor {entry['name']!r} has {arr.size} values, expected {expected}")
    return arr.reshape(entry["shape"])


def load_checkpoint(path: str) -> VideoViT:
    """Rebuild the model the checkpoint describes and restore every
    tensor and freeze flag bit-exactly."""
    header = read_checkpoint_header(path)
    exp = experiment_from_echo(header["config"])
    dtype = np.float64 if any(e["dtype"] == "<f8" for e in header["tensors"]) else np.float32
    model = VideoViT(exp.model, seed=int(header.get("seed", 0)), dtype=dtype)
    with open(path, "rb") as fh:
        fh.seek(header["_payload_start"])
        payload = fh.read()
    stored = {e["name"] for e in header["tensors"]}
    missing = set(model.params) - stored
    if missing:
        raise CheckpointError(f"{path}: missing tensors for this config: {sorted(missing)[0]!r}")
    for entry in header["tensors"]:
        name = entry["name"]
        if name not in model.params:
            raise CheckpointError(f"{path}: unexpected tensor {name!r} for the echoed config")
        arr = _read_tensor(payload, entry, path)
        dst = model.params[name]
        if tuple(arr.shape) != dst.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {tuple(arr.shape)} does not match model shape {dst.shape}")
        dst.data = arr.astype(model.dtype, copy=True)
        dst.requires_grad = bool(entry["trainable"])
    return model


def load_named_tensors(model: VideoViT, path: str, predicate) -> list[str]:
    """Copy only the stored tensors whose names satisfy ``predicate``
    into an existing model (partial load, e.g. backbone-only weights
    from an externally trained image model). Returns the loaded names;
    everything else is left untouched."""
    header = read_checkpoint_header(path)
    with open(path, "rb") as fh:
        fh.seek(header["_payload_start"])
        payload = fh.read()
    loaded = []
    for entry in header["tensors"]:
        name = entry["name"]
        if not predicate(name):
            continue
        if name not in model.params:
            raise CheckpointError(f"{path}: tensor {name!r} does not exist in the target model")
        arr = _read_tensor(payload, entry, path)
        dst = model.params[name]
        if tuple(arr.shape) != dst.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {tuple(arr.shape)} does not match model shape {dst.shape}")
        dst.data = arr.astype(model.dtype, copy=True)
        loaded.append(name)
    return loaded
