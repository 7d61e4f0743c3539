import hashlib
import struct
import zlib

import numpy as np
import pytest

from covdenoise.denoiser import (
    DenoiserConfig,
    init_weights,
    load_weights,
    save_weights,
    tensor_shapes,
)
from covdenoise.denoiser.storage import MAGIC
from covdenoise.errors import ChecksumError, WeightsFormatError


def make_weights():
    config = DenoiserConfig(
        input_size=5, num_blocks=2, num_filters=3, kernel=3, learning_rate=2e-3,
        batch_size=4, epochs=7, validation_fraction=0.25, seed=99, mode="eigenvectors",
    )
    weights = init_weights(config)
    weights.normalizer = 1.75
    return weights


def test_roundtrip_preserves_tensors_and_config(tmp_path):
    weights = make_weights()
    path = tmp_path / "weights.cdnw"
    save_weights(weights, path)
    loaded = load_weights(path)
    assert loaded.config == weights.config
    assert loaded.normalizer == weights.normalizer
    for got, want in zip(loaded.tensors(), weights.tensors()):
        assert got.shape == want.shape
        assert np.array_equal(got.astype("<f4"), want.astype("<f4"))


def test_second_save_is_byte_identical(tmp_path):
    first = tmp_path / "a.cdnw"
    second = tmp_path / "b.cdnw"
    cases = [make_weights()] + [
        init_weights(DenoiserConfig(input_size=4, num_blocks=blocks, num_filters=2, kernel=k))
        for blocks in (1, 2, 3)
        for k in (1, 3, 5)
    ]
    for weights in cases:
        save_weights(weights, first)
        loaded = load_weights(first)
        assert [t.shape for t in loaded.tensors()] == tensor_shapes(weights.config)
        save_weights(loaded, second)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "config, digest",
    [
        (
            DenoiserConfig(input_size=12, num_blocks=3, kernel=5, mode="eigenvectors"),
            "cf9221c5d9b209758a5857c8f90252c7518bbbd55a6fe29f3da625b760f65396",
        ),
        (
            DenoiserConfig(input_size=12),
            "0190426c946b7276095084eaa77d6a78b2e614b82176c946e320c7337be287fc",
        ),
    ],
)
def test_initial_weights_file_is_golden(tmp_path, config, digest):
    # pins the initial draw order and every byte of the file format
    path = tmp_path / "weights.cdnw"
    save_weights(init_weights(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def rewrite_metadata(path, edit):
    """Apply ``edit`` to the metadata text and re-frame the file with a valid
    length and checksum, so only the metadata check can reject it."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, len(MAGIC))
    meta = edit(raw[start:start + length].decode("utf-8")).encode("utf-8")
    body = MAGIC + struct.pack("<I", len(meta)) + meta + raw[start + length:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("input_size=5", "input_size=x"), "input_size='x'"),
        (lambda text: text.replace("learning_rate=0.002", "learning_rate=fast"), "learning_rate"),
        (lambda text: text.replace("epochs=7\n", ""), "missing keys \\['epochs'\\]"),
        (lambda text: text + "dropout=0.5\n", "unknown keys \\['dropout'\\]"),
        (lambda text: text.replace("kernel=3", "kernel=4"), "kernel size must be odd, got 4"),
        (lambda text: text + "no separator\n", "malformed metadata line 'no separator'"),
    ],
    ids=["int-value", "float-value", "missing-key", "unknown-key", "invalid-config",
         "no-separator"],
)
def test_bad_metadata_raises_format_error_naming_the_key(tmp_path, edit, message):
    path = tmp_path / "weights.cdnw"
    save_weights(make_weights(), path)
    rewrite_metadata(path, edit)
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path)


def with_checksum(body):
    """``body`` followed by its valid CRC-32, so only the framing checks can reject it."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def saved_parts(tmp_path):
    """The metadata block and the tensor bytes of a saved weights file."""
    path = tmp_path / "saved.cdnw"
    save_weights(make_weights(), path)
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    end = start + struct.unpack_from("<I", raw, len(MAGIC))[0]
    return raw[start:end], raw[end:-4]


def framed(meta, tensors, declared=None):
    """Magic, the metadata length (``declared`` if given), metadata, tensors."""
    length = len(meta) if declared is None else declared
    return MAGIC + struct.pack("<I", length) + meta + tensors


@pytest.mark.parametrize(
    "frame, message",
    [
        (lambda meta, tensors: MAGIC, "truncated"),
        (lambda meta, tensors: framed(meta, b"", declared=len(meta) + 1000),
         "metadata block overruns the file"),
        (lambda meta, tensors: framed(meta, tensors[:-4]), "tensor data overruns the file"),
        (lambda meta, tensors: framed(meta, tensors + b"\x00" * 4),
         "trailing bytes after the declared tensors"),
    ],
    ids=["under-16-bytes", "metadata-overrun", "tensor-overrun", "trailing-bytes"],
)
def test_misframed_files_with_valid_checksums_are_rejected(tmp_path, frame, message):
    path = tmp_path / "weights.cdnw"
    path.write_bytes(with_checksum(frame(*saved_parts(tmp_path))))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path)


def test_truncated_file_fails_checksum(tmp_path):
    weights = make_weights()
    path = tmp_path / "weights.cdnw"
    save_weights(weights, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises((ChecksumError, WeightsFormatError)):
        load_weights(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    weights = make_weights()
    path = tmp_path / "weights.cdnw"
    save_weights(weights, path)
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_weights(path)


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "weights.cdnw"
    path.write_bytes(b"CDNWGT99" + b"\x00" * 32)
    with pytest.raises(WeightsFormatError):
        load_weights(path)


def test_no_temp_file_left_behind(tmp_path):
    weights = make_weights()
    path = tmp_path / "weights.cdnw"
    save_weights(weights, path)
    assert [p.name for p in tmp_path.iterdir()] == ["weights.cdnw"]
