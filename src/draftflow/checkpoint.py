"""Checkpoint files: a JSON manifest line followed by raw float32 payload.

The manifest records the format version, a stage tag, a config snapshot,
and per-tensor name/shape/offset entries plus a SHA-256 of the payload, so
a corrupted or truncated file fails loudly. Tensors are stored as raw
little-endian float32 bytes in manifest order; round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    stage: str
    arrays: dict
    config: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write through a temp file beside `path`, renamed over it on success.

    If the block raises, the temp file is removed, so `path` keeps its
    previous content (or stays absent) and never holds a partial write.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, stage: str, arrays: dict, config: dict | None = None) -> str:
    """Write a checkpoint; returns the SHA-256 of the whole file."""
    if not stage:
        raise ValueError("stage tag must be non-empty")
    entries = []
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise ValueError(f"tensor '{name}' is {arr.dtype}, "
                             "checkpoints hold float32 only")
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": len(payload), "nbytes": len(raw)})
        payload.extend(raw)
    manifest = {
        "version": FORMAT_VERSION,
        "stage": stage,
        "config": config or {},
        "payload_sha256": hashlib.sha256(bytes(payload)).hexdigest(),
        "tensors": entries,
    }
    blob = json.dumps(manifest, sort_keys=True).encode() + b"\n" + bytes(payload)
    with atomic_open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint; bit-exact against what was saved.

    The payload is read once into one aligned buffer; every returned tensor
    is a float32 view of it, so nothing is copied after the read.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        payload = np.empty(os.fstat(fh.fileno()).st_size - len(head),
                           dtype=np.uint8)
        payload = payload[:fh.readinto(payload)]
    if not head.endswith(b"\n"):
        raise CheckpointError(f"{path}: no manifest line")
    try:
        manifest = json.loads(head)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: manifest is not valid JSON") from e
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{version!r} (supported: {FORMAT_VERSION})")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest["payload_sha256"]:
        raise CheckpointError(f"{path}: payload hash mismatch, file corrupt")
    arrays = {}
    for entry in manifest["tensors"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        raw = payload[start:start + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(f"{path}: tensor '{entry['name']}' "
                                  "truncated")
        arrays[entry["name"]] = raw.view("<f4").reshape(entry["shape"])
    return Checkpoint(stage=manifest["stage"], arrays=arrays,
                      config=manifest["config"], version=version)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
