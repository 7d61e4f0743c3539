"""Binary persistence of trained weights.

Layout: 8-byte magic ``CDNWGT01``; a little-endian uint32 byte length followed
by a UTF-8 ``key=value`` metadata block (every configuration field in
declaration order, then the scalar normalizer; each value is parsed back with
its field's type); the parameter tensors in :func:`tensor_shapes` order as
little-endian float32; and a trailing little-endian uint32 CRC-32 of
everything before it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ..atomic import atomic_write
from ..errors import ChecksumError, ParameterError, WeightsFormatError
from .network import DenoiserConfig, DenoiserWeights, tensor_shapes

MAGIC = b"CDNWGT01"

# every configuration field in declaration order, then the normalizer
_METADATA_TYPES = {**get_type_hints(DenoiserConfig), "normalizer": float}


def _metadata_block(weights: DenoiserWeights) -> bytes:
    entries = {**asdict(weights.config), "normalizer": float(weights.normalizer)}
    return "".join(f"{key}={value}\n" for key, value in entries.items()).encode("utf-8")


def _parse_metadata(block: bytes) -> dict:
    entries: dict[str, str] = {}
    for line in block.decode("utf-8").splitlines():
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise WeightsFormatError(f"malformed metadata line {line!r}")
        entries[key] = value
    missing = set(_METADATA_TYPES) - set(entries)
    if missing:
        raise WeightsFormatError(f"metadata missing keys {sorted(missing)}")
    unknown = set(entries) - set(_METADATA_TYPES)
    if unknown:
        raise WeightsFormatError(f"metadata has unknown keys {sorted(unknown)}")
    parsed = {}
    for key, value in entries.items():
        kind = _METADATA_TYPES[key]
        try:
            parsed[key] = kind(value)
        except ValueError:
            raise WeightsFormatError(
                f"metadata value {key}={value!r} is not a valid {kind.__name__}"
            ) from None
    return parsed


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
    normalizer = entries.pop("normalizer")
    try:
        config = DenoiserConfig(**entries)
    except ParameterError as exc:
        raise WeightsFormatError(f"metadata describes an invalid configuration: {exc}") from None
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
    return DenoiserWeights._from_tensors(config, tensors, normalizer)
