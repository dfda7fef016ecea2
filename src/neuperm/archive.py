"""Weight-file container: parse and write the safetensors layout.

Layout: 8 bytes little-endian u64 header length N, then N bytes of UTF-8
JSON mapping tensor name -> {dtype, shape, data_offsets}, then the raw
payload. data_offsets are [begin, end) relative to the payload start.

Canonical writes sort names lexicographically, emit minimal JSON (no
whitespace, sorted keys) and pack payloads contiguously in name order, so
equal archives serialize to identical bytes. The parser is stricter than it
needs to be for our own files on purpose: it is the fuzz target.

Loading copies nothing per tensor. ``load_archive`` reads the file once into
a read-only buffer placed so that the payload starts on a 64-byte boundary,
and ``parse_archive`` wraps each tensor as a view of that buffer; only a
tensor whose offset does not suit its dtype's alignment is copied (by
``Tensor``), because numpy runs misaligned arrays through a slower non-BLAS
loop that also rounds differently. Writing streams the
header and then each tensor's bytes through one serializer, ``_serialize``;
``save_archive`` hashes the bytes as they go to disk and returns the sha256,
so a saved archive is never serialized or read again to name its digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .tensor import Tensor

_DTYPE_TO_TAG = {"float32": "F32", "float16": "F16"}
_TAG_TO_NUMPY = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2")}
_METADATA_KEY = "__metadata__"

# json header larger than this is rejected before allocation
_MAX_HEADER = 256 * 1024 * 1024
# load_archive starts the payload on a multiple of this many bytes
_PAYLOAD_ALIGN = 64


@dataclass
class ModelArchive:
    """Named tensors plus free-form string metadata."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def param_count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def shape_of(self, name: str) -> tuple[int, ...]:
        return self.tensors[name].shape

    def replace(self, updates: dict[str, Tensor]) -> "ModelArchive":
        """New archive with some tensors swapped out."""
        for name in updates:
            if name not in self.tensors:
                raise KeyError(f"unknown tensor {name!r}")
        merged = dict(self.tensors)
        merged.update(updates)
        return ModelArchive(merged, dict(self.metadata))

    def same_bits(self, other: "ModelArchive") -> bool:
        if set(self.tensors) != set(other.tensors) or self.metadata != other.metadata:
            return False
        return all(t.same_bits(other.tensors[k]) for k, t in self.tensors.items())


def _dup_check(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate tensor name {key!r} in header")
        seen.add(key)
        out[key] = value
    return out


def parse_archive(buf) -> ModelArchive:
    """Decode container bytes. Every malformation raises ParseError.

    ``buf`` is any bytes-like object; tensors are views of it where their
    data is aligned and ``buf`` is read-only, and copies otherwise.
    """
    buf = memoryview(buf).cast("B")
    if len(buf) < 8:
        raise ParseError("file shorter than the 8-byte header-length prefix", 0)
    (header_len,) = struct.unpack_from("<Q", buf, 0)
    if header_len > _MAX_HEADER:
        raise ParseError(f"header length {header_len} is implausibly large", 0)
    if 8 + header_len > len(buf):
        raise ParseError(
            f"header length {header_len} overruns the file ({len(buf)} bytes)", 0
        )
    try:
        text = bytes(buf[8 : 8 + header_len]).decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"header is not valid UTF-8: {e.reason}", 8 + e.start) from e
    try:
        header = json.loads(text, object_pairs_hook=_dup_check)
    except ParseError:
        raise
    except json.JSONDecodeError as e:
        raise ParseError(f"header is not valid JSON: {e.msg}", 8 + e.pos) from e
    if not isinstance(header, dict):
        raise ParseError("header JSON must be an object", 8)

    payload = buf[8 + header_len :]
    metadata: dict[str, str] = {}
    tensors: dict[str, Tensor] = {}
    spans: list[tuple[int, int, str]] = []

    for name, entry in header.items():
        if name == _METADATA_KEY:
            if not isinstance(entry, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in entry.items()
            ):
                raise ParseError("__metadata__ must map strings to strings", 8)
            metadata = dict(entry)
            continue
        if not name:
            raise ParseError("empty tensor name", 8)
        if not isinstance(entry, dict):
            raise ParseError(f"entry for {name!r} must be an object", 8)
        missing = {"dtype", "shape", "data_offsets"} - entry.keys()
        if missing:
            raise ParseError(f"entry for {name!r} lacks {sorted(missing)}", 8)
        tag = entry["dtype"]
        if tag not in _TAG_TO_NUMPY:
            raise ParseError(f"tensor {name!r} has unsupported dtype {tag!r}", 8)
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
        ):
            raise ParseError(f"tensor {name!r} has malformed shape {shape!r}", 8)
        offs = entry["data_offsets"]
        if (
            not isinstance(offs, list)
            or len(offs) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offs)
        ):
            raise ParseError(f"tensor {name!r} has malformed data_offsets {offs!r}", 8)
        begin, end = offs
        if begin < 0 or end < begin:
            raise ParseError(f"tensor {name!r} offsets [{begin}, {end}) are inverted", 8)
        if end > len(payload):
            raise ParseError(
                f"tensor {name!r} offsets [{begin}, {end}) overrun the payload "
                f"({len(payload)} bytes)",
                8 + header_len + begin,
            )
        dt = _TAG_TO_NUMPY[tag]
        count = math.prod(shape)
        if end - begin != count * dt.itemsize:
            raise ParseError(
                f"tensor {name!r}: {end - begin} bytes but shape {shape} "
                f"needs {count * dt.itemsize}",
                8 + header_len + begin,
            )
        spans.append((begin, end, name))
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=begin).reshape(shape)
        tensors[name] = Tensor(arr)

    spans.sort()
    for (b1, e1, n1), (b2, e2, n2) in zip(spans, spans[1:]):
        if b2 < e1:
            raise ParseError(
                f"tensors {n1!r} and {n2!r} overlap: [{b1}, {e1}) vs [{b2}, {e2})",
                8 + header_len + b2,
            )
    return ModelArchive(tensors, metadata)


def _serialize(archive: ModelArchive, sink) -> None:
    """Feed the canonical bytes to ``sink``: the length prefix and header as
    one bytes chunk, then each tensor's payload as a uint8 view of its data."""
    names = sorted(archive.tensors)
    header: dict[str, object] = {}
    if archive.metadata:
        header[_METADATA_KEY] = dict(archive.metadata)
    cursor = 0
    for name in names:
        t = archive.tensors[name]
        header[name] = {
            "dtype": _DTYPE_TO_TAG[t.dtype],
            "shape": list(t.shape),
            "data_offsets": [cursor, cursor + t.data.nbytes],
        }
        cursor += t.data.nbytes
    text = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    sink(struct.pack("<Q", len(text)) + text)
    for name in names:
        sink(archive.tensors[name].data.reshape(-1).view(np.uint8))


def write_archive(archive: ModelArchive) -> bytes:
    """Canonical serialization (stable bytes for equal archives)."""
    chunks: list = []
    _serialize(archive, chunks.append)
    return b"".join(chunks)


def load_archive(path) -> ModelArchive:
    """Read a file into one read-only buffer whose payload is 64-byte aligned."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # a short or implausible prefix only moves the start; parse_archive rejects it
        start = -(8 + int.from_bytes(fh.read(8), "little")) % _PAYLOAD_ALIGN
        raw = np.empty(size + 2 * _PAYLOAD_ALIGN, dtype=np.uint8)
        start += -raw.ctypes.data % _PAYLOAD_ALIGN
        fh.seek(0)
        filled = 0
        with memoryview(raw[start : start + size]) as view:
            while filled < size:
                got = fh.readinto(view[filled:])
                if not got:
                    break
                filled += got
    raw.setflags(write=False)
    return parse_archive(raw[start : start + filled])


def save_archive(archive: ModelArchive, path) -> str:
    """Write the canonical bytes to ``path``; returns their sha256."""
    digest = hashlib.sha256()

    def sink(chunk) -> None:
        fh.write(chunk)
        digest.update(chunk)

    with open(path, "wb") as fh:
        _serialize(archive, sink)
    return digest.hexdigest()


def archive_digest(archive: ModelArchive) -> str:
    """sha256 of the canonical serialization."""
    digest = hashlib.sha256()
    _serialize(archive, digest.update)
    return digest.hexdigest()
