"""Binary persistence of trained weights.

Layout: 8-byte magic ``CDNWGT01``; a little-endian uint32 byte length followed
by a UTF-8 ``key=value`` metadata block (every configuration field plus the
scalar normalizer); the parameter tensors in declaration order as little-endian
float32; and a trailing little-endian uint32 CRC-32 of everything before it.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import ChecksumError, WeightsFormatError
from .network import DenoiserConfig, DenoiserWeights, ResidualBlockWeights, tensor_shapes

MAGIC = b"CDNWGT01"

_METADATA_KEYS = (
    "input_size",
    "num_blocks",
    "num_filters",
    "kernel",
    "learning_rate",
    "batch_size",
    "epochs",
    "validation_fraction",
    "seed",
    "mode",
    "normalizer",
)


def _metadata_block(weights: DenoiserWeights) -> bytes:
    config = weights.config
    values = {
        "input_size": config.input_size,
        "num_blocks": config.num_blocks,
        "num_filters": config.num_filters,
        "kernel": config.kernel,
        "learning_rate": repr(config.learning_rate),
        "batch_size": config.batch_size,
        "epochs": config.epochs,
        "validation_fraction": repr(config.validation_fraction),
        "seed": config.seed,
        "mode": config.mode,
        "normalizer": repr(float(weights.normalizer)),
    }
    return "".join(f"{key}={values[key]}\n" for key in _METADATA_KEYS).encode("utf-8")


def _parse_metadata(block: bytes) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in block.decode("utf-8").splitlines():
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise WeightsFormatError(f"malformed metadata line {line!r}")
        entries[key] = value
    missing = set(_METADATA_KEYS) - set(entries)
    if missing:
        raise WeightsFormatError(f"metadata missing keys {sorted(missing)}")
    unknown = set(entries) - set(_METADATA_KEYS)
    if unknown:
        raise WeightsFormatError(f"metadata has unknown keys {sorted(unknown)}")
    return entries


def save_weights(weights: DenoiserWeights, path) -> None:
    """Write weights atomically (unique temp file + rename)."""
    meta = _metadata_block(weights)
    body = bytearray()
    body += MAGIC
    body += struct.pack("<I", len(meta))
    body += meta
    for tensor in weights.tensors():
        body += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    atomic_write(path, bytes(body))


def load_weights(path) -> DenoiserWeights:
    """Read and verify a weights file; tensors come back as float64 arrays
    holding exactly the stored float32 values."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8:
        raise WeightsFormatError("weights file is truncated")
    if raw[: len(MAGIC)] != MAGIC:
        raise WeightsFormatError(
            f"unsupported weights file (magic {raw[:len(MAGIC)]!r}, expected {MAGIC!r})"
        )
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    actual_crc = zlib.crc32(raw[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"weights file checksum mismatch (stored {stored_crc:#010x}, actual {actual_crc:#010x})"
        )
    offset = len(MAGIC)
    (meta_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if offset + meta_len > len(raw) - 4:
        raise WeightsFormatError("metadata block overruns the file")
    entries = _parse_metadata(raw[offset:offset + meta_len])
    offset += meta_len
    config = DenoiserConfig(
        input_size=int(entries["input_size"]),
        num_blocks=int(entries["num_blocks"]),
        num_filters=int(entries["num_filters"]),
        kernel=int(entries["kernel"]),
        learning_rate=float(entries["learning_rate"]),
        batch_size=int(entries["batch_size"]),
        epochs=int(entries["epochs"]),
        validation_fraction=float(entries["validation_fraction"]),
        seed=int(entries["seed"]),
        mode=entries["mode"],
    )
    tensors: list[np.ndarray] = []
    for shape in tensor_shapes(config):
        count = int(np.prod(shape))
        end = offset + 4 * count
        if end > len(raw) - 4:
            raise WeightsFormatError("tensor data overruns the file")
        tensor = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        tensors.append(tensor.astype(float).reshape(shape))
        offset = end
    if offset != len(raw) - 4:
        raise WeightsFormatError("trailing bytes after the declared tensors")
    blocks = [
        ResidualBlockWeights(
            conv1_kernel=tensors[2 + 4 * i],
            conv1_bias=tensors[3 + 4 * i],
            conv2_kernel=tensors[4 + 4 * i],
            conv2_bias=tensors[5 + 4 * i],
        )
        for i in range(config.num_blocks)
    ]
    return DenoiserWeights(
        config=config,
        stem_kernel=tensors[0],
        stem_bias=tensors[1],
        blocks=blocks,
        head_kernel=tensors[-2],
        head_bias=tensors[-1],
        normalizer=float(entries["normalizer"]),
    )
