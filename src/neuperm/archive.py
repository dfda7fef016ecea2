"""Weight-file container: parse and write the safetensors layout.

Layout: 8 bytes little-endian u64 header length N, then N bytes of UTF-8
JSON mapping tensor name -> {dtype, shape, data_offsets}, then the raw
payload. data_offsets are [begin, end) relative to the payload start.

Canonical writes sort names lexicographically, emit minimal JSON (no
whitespace, sorted keys) and pack payloads contiguously in name order, so
equal archives serialize to identical bytes. The parser is stricter than it
needs to be for our own files on purpose: it is the fuzz target.

A file is read through ``ArchiveReader``: it checks the header with
``_read_header``, as ``parse_archive`` does, then reads a tensor, or some
rows of one (``rows``: a contiguous range in one read, an index array one
read per run of consecutive rows), into a 64-byte-aligned buffer (numpy
runs a misaligned array through a slower loop that also rounds
differently). Every archive offers ``metadata``, a ``layout`` of
``TensorSpec`` by name, ``read(name)`` and ``map(rewrite)`` (see
``engine.Rewrite``): a ``ModelArchive`` holds its tensors and maps them at
once, while a reader's ``map`` is a view that hands each rewrite a
``StoredTensor``, read only as far as the rewrite asks, so a command can
stream a model in row blocks and never hold one tensor whole.

Everything that writes an archive goes through one canonical writer,
``_emit``, over any archive-like object: ``metadata``, a ``layout`` of
``TensorSpec`` by name, and ``blocks(name)``, the tensor as a run of row
blocks (one block, itself, for a ``ModelArchive``; the rewrite's blocks for
``ArchiveReader.map``). Blocks are checked against the header as they go
out and let go right after, so a few blocks, or a rewrite's one whole
tensor, are held at a time. ``save_archive`` writes each block to the file
while one helper thread (``sweep.feeding``) feeds the same block to sha256,
at most two blocks behind; a block over 1 MiB, such as a whole tensor, is
hashed in full before the next is produced, so it is let go before the
next is read.
The digest returned is that of the bytes written, and a saved archive is
never read again to name it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParseError
from .sweep import feeding
from .tensor import DTYPES, Tensor

_TAG_TO_NUMPY = {tag: np.dtype(name).newbyteorder("<") for name, tag in DTYPES.items()}
_METADATA_KEY = "__metadata__"

# json header larger than this is rejected before allocation
_MAX_HEADER = 256 * 1024 * 1024
# every tensor buffer a reader fills starts on a multiple of this many bytes
_PAYLOAD_ALIGN = 64
# bytes ArchiveReader.digest reads at a time
_HASH_CHUNK = 4 << 20
# largest block save_archive's hashing helper may still hold while the next
# block is produced; a larger one, such as a whole tensor, is let go first.
# The row blocks of engine.row_blocks (engine._BLOCK_BYTES) are no larger.
_LAG_BYTES = 1 << 20


class TensorSpec(NamedTuple):
    """A tensor's dtype name and shape: what the header says of it."""

    dtype: str
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass
class ModelArchive:
    """Named tensors plus free-form string metadata."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def param_count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    @property
    def layout(self) -> dict[str, TensorSpec]:
        return {name: TensorSpec(t.dtype, t.shape) for name, t in self.tensors.items()}

    def read(self, name: str) -> Tensor:
        return self.tensors[name]

    def blocks(self, name: str) -> tuple[np.ndarray]:
        return (self.tensors[name].data,)

    def replace(self, updates: dict[str, Tensor]) -> "ModelArchive":
        """New archive with some tensors swapped out."""
        for name in updates:
            if name not in self.tensors:
                raise KeyError(f"unknown tensor {name!r}")
        merged = dict(self.tensors)
        merged.update(updates)
        return ModelArchive(merged, dict(self.metadata))

    def map(self, rewrite) -> "ModelArchive":
        """New archive holding, for every tensor, the rows of the blocks
        ``rewrite(name, tensor)`` yields (see ``engine.Rewrite``)."""
        return ModelArchive(
            {name: assemble(name, rewrite(name, t), TensorSpec(t.dtype, t.shape))
             for name, t in self.tensors.items()},
            dict(self.metadata))

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


def _read_header(head, size: int):
    """Check the header of a ``size``-byte file whose first bytes, the length
    prefix and the header at least, are ``head``. Every malformation raises
    ParseError. Returns (payload start, metadata, {name: (numpy dtype,
    shape, begin, end)}) with payload-relative offsets."""
    if size < 8:
        raise ParseError("file shorter than the 8-byte header-length prefix", 0)
    (header_len,) = struct.unpack_from("<Q", head, 0)
    if header_len > _MAX_HEADER:
        raise ParseError(f"header length {header_len} is implausibly large", 0)
    if 8 + header_len > size:
        raise ParseError(f"header length {header_len} overruns the file ({size} bytes)", 0)
    try:
        text = bytes(head[8 : 8 + header_len]).decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"header is not valid UTF-8: {e.reason}", 8 + e.start) from e
    try:
        header = json.loads(text, object_pairs_hook=_dup_check)
    except ParseError:
        raise
    except json.JSONDecodeError as e:
        raise ParseError(f"header is not valid JSON: {e.msg}", 8 + e.pos) from e
    except RecursionError as e:
        raise ParseError("header JSON is nested too deeply", 8) from e
    if not isinstance(header, dict):
        raise ParseError("header JSON must be an object", 8)

    start, payload_len = 8 + header_len, size - 8 - header_len
    metadata: dict[str, str] = {}
    entries = {}
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
        if end > payload_len:
            raise ParseError(
                f"tensor {name!r} offsets [{begin}, {end}) overrun the payload "
                f"({payload_len} bytes)",
                start + begin,
            )
        dt = _TAG_TO_NUMPY[tag]
        count = math.prod(shape)
        if end - begin != count * dt.itemsize:
            raise ParseError(
                f"tensor {name!r}: {end - begin} bytes but shape {shape} "
                f"needs {count * dt.itemsize}",
                start + begin,
            )
        entries[name] = (dt, tuple(shape), begin, end)

    spans = sorted((begin, end, name) for name, (_, _, begin, end) in entries.items())
    for (b1, e1, n1), (b2, e2, n2) in zip(spans, spans[1:]):
        if b2 < e1:
            raise ParseError(
                f"tensors {n1!r} and {n2!r} overlap: [{b1}, {e1}) vs [{b2}, {e2})",
                start + b2,
            )
    return start, metadata, entries


def parse_archive(buf) -> ModelArchive:
    """Decode container bytes. Every malformation raises ParseError.

    ``buf`` is any bytes-like object; tensors are views of it where their
    data is aligned and ``buf`` is read-only, and copies otherwise.
    """
    buf = memoryview(buf).cast("B")
    start, metadata, entries = _read_header(buf, len(buf))
    payload = buf[start:]
    tensors = {
        name: Tensor(np.frombuffer(payload, dtype=dt, count=math.prod(shape), offset=begin)
                     .reshape(shape))
        for name, (dt, shape, begin, _) in entries.items()
    }
    return ModelArchive(tensors, metadata)


def aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A fresh C-contiguous array that starts on a multiple of _PAYLOAD_ALIGN bytes."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + _PAYLOAD_ALIGN, dtype=np.uint8)
    first = -raw.ctypes.data % _PAYLOAD_ALIGN
    return raw[first : first + nbytes].view(dtype).reshape(shape)


def _fill(fh, buf) -> int:
    """Read from ``fh``'s position into ``buf`` until it is full or the file
    ends; returns the number of bytes read."""
    filled = 0
    with memoryview(buf) as view:
        while filled < len(view):
            got = fh.readinto(view[filled:])
            if not got:
                break
            filled += got
    return filled


class ArchiveReader:
    """An archive file held open and read a tensor, or some of its rows, at a time.

    Opening reads only the length prefix and the header, and checks them as
    ``parse_archive`` does, so a malformed file is refused before any tensor
    is read. ``metadata``, ``layout`` and ``param_count`` come from the
    header. ``read(name)`` reads one tensor into a 64-byte-aligned buffer of
    its own, ``rows(name, index)`` some of its rows; ``digest()`` hashes the
    whole file in order. All read through the one file handle under a lock,
    so a helper thread may hash the file while the caller reads tensors,
    and the file is opened once. A ``with`` block closes it.
    """

    def __init__(self, path):
        self._fh = open(path, "rb", buffering=0)
        self._lock = threading.Lock()
        try:
            size = os.fstat(self._fh.fileno()).st_size
            head = bytearray(8)
            header_len = int.from_bytes(head[: _fill(self._fh, head)], "little")
            # a header length _read_header refuses is not read
            if header_len <= min(_MAX_HEADER, size - 8):
                head += bytearray(header_len)
                _fill(self._fh, memoryview(head)[8:])
            self._start, self.metadata, self._entries = _read_header(head, size)
        except BaseException:
            self._fh.close()
            raise
        self.layout = {name: TensorSpec(dt.name, shape)
                       for name, (dt, shape, _, _) in self._entries.items()}

    @property
    def param_count(self) -> int:
        return sum(spec.size for spec in self.layout.values())

    def read(self, name: str) -> Tensor:
        """Tensor ``name``, read from the file now. A file that ends before
        the tensor does raises ParseError naming it."""
        dt, shape, begin, _ = self._entries[name]
        data = aligned_empty(shape, dt)
        self._fill_from(name, data, begin)
        return Tensor.adopt(data)

    def rows(self, name: str, index, out: np.ndarray | None = None) -> np.ndarray:
        """Rows ``index`` of tensor ``name``, read from the file now: a slice
        of axis 0 in one read, or an array of row indices in one read per
        run of consecutive rows. They land in the first rows of ``out`` (a
        C-contiguous array of the tensor's dtype and trailing shape) or in
        a fresh 64-byte-aligned block. A file that ends before a row does
        raises ParseError naming the tensor."""
        dt, shape, begin, _ = self._entries[name]
        if not shape:
            raise ValueError(f"tensor {name!r} is 0-d: it has no rows")
        row = dt.itemsize * math.prod(shape[1:])
        if isinstance(index, slice):
            first, stop, step = index.indices(shape[0])
            if step != 1:
                raise ValueError("a slice of rows must have step 1")
            firsts, counts = [first], [max(0, stop - first)]
        else:
            index = np.asarray(index, dtype=np.int64).reshape(-1)
            if index.size and not 0 <= index.min() <= index.max() < shape[0]:
                raise IndexError(f"a row index of tensor {name!r} is out of its {shape[0]} rows")
            cuts = np.flatnonzero(np.diff(index) != 1) + 1
            firsts = index[np.r_[0, cuts]].tolist() if index.size else []
            counts = np.diff(np.r_[0, cuts, index.size]).tolist()
        n = sum(counts)
        if out is None:
            data = aligned_empty((n, *shape[1:]), dt)
        elif (out.dtype != dt or out.shape[1:] != shape[1:] or len(out) < n
                or not out.flags.c_contiguous):
            raise ValueError(f"rows of {dt} {shape} cannot be read into {out.dtype} {out.shape}")
        else:
            data = out[:n]
        at = 0
        for first, count in zip(firsts, counts):
            self._fill_from(name, data[at : at + count], begin + first * row)
            at += count
        return data

    def map(self, rewrite) -> "_Rewritten":
        """This file as an archive whose tensors come as the row blocks of
        ``rewrite(name, tensor)``, each read and rewritten when it or its
        blocks are asked for."""
        return _Rewritten(self, rewrite)

    def digest(self) -> str:
        """sha256 of the whole file."""
        hasher = hashlib.sha256()
        chunk, offset = bytearray(_HASH_CHUNK), 0
        with memoryview(chunk) as view:
            while got := self._read_at(view, offset):
                hasher.update(view[:got])
                offset += got
        return hasher.hexdigest()

    def _read_at(self, buf, offset: int) -> int:
        with self._lock:
            self._fh.seek(offset)
            return _fill(self._fh, buf)

    def _fill_from(self, name: str, buf: np.ndarray, at: int) -> None:
        """Fill the C-contiguous array ``buf`` with the payload bytes of
        tensor ``name`` from payload offset ``at``; raise ParseError if the
        file ends first."""
        buf = buf.reshape(-1).view(np.uint8)
        if self._read_at(buf, self._start + at) < buf.size:
            _, _, begin, end = self._entries[name]
            ends = max(0, os.fstat(self._fh.fileno()).st_size - self._start - begin)
            raise ParseError(f"tensor {name!r} is cut short: the file ends {ends} bytes into "
                             f"its {end - begin}", self._start + begin + ends)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class StoredTensor:
    """Tensor ``name`` of ``reader``'s file, as a rewrite of a reader's
    ``map`` is handed it: nothing is read until it is asked for. ``shape``,
    ``dtype`` and ``size`` come from the header, ``rows(index)`` reads some
    rows (see ``ArchiveReader.rows``), and ``data`` reads the whole tensor,
    once."""

    def __init__(self, reader: ArchiveReader, name: str):
        self.reader, self.name = reader, name
        spec = reader.layout[name]
        self.shape, self.dtype, self.size = spec.shape, spec.dtype, spec.size

    @functools.cached_property
    def data(self) -> np.ndarray:
        return self.reader.read(self.name).data

    def rows(self, index) -> np.ndarray:
        return self.reader.rows(self.name, index)


@dataclass(frozen=True)
class _Rewritten:
    """``map`` of a reader or of a view: ``source``, each tensor rewritten as it is read."""

    source: "ArchiveReader | _Rewritten"
    rewrite: Callable[[str, "Tensor | StoredTensor"], Iterable[np.ndarray]]

    @property
    def metadata(self) -> dict[str, str]:
        return self.source.metadata

    @property
    def layout(self) -> dict[str, TensorSpec]:
        return self.source.layout

    def blocks(self, name: str) -> Iterable[np.ndarray]:
        source = self.source
        if isinstance(source, ArchiveReader):
            return self.rewrite(name, StoredTensor(source, name))
        return self.rewrite(name, source.read(name))

    def read(self, name: str) -> Tensor:
        return assemble(name, self.blocks(name), self.layout[name])

    def map(self, rewrite) -> "_Rewritten":
        return _Rewritten(self, rewrite)


def _checked(name: str, blocks: Iterable[np.ndarray], spec: TensorSpec) -> Iterator[np.ndarray]:
    """``blocks``, the row blocks of tensor ``name``, each checked against
    the spec the header was written from: its dtype and trailing shape as
    it comes, the rows of all of them once they end (a 0-d tensor is one
    row)."""
    want, rows = spec.shape[0] if spec.shape else 1, 0
    for block in blocks:
        rows += len(block) if block.ndim else 1
        if (block.dtype != np.dtype(spec.dtype) or block.shape[1:] != spec.shape[1:]
                or block.ndim != len(spec.shape) or rows > want):
            raise ValueError(f"tensor {name!r}: a block of {block.dtype} {block.shape} does "
                             f"not fit the header's {spec.dtype} {spec.shape}")
        yield block
    if rows != want:
        raise ValueError(f"tensor {name!r}: its blocks hold {rows} of the {want} rows of the "
                         f"header's {spec.dtype} {spec.shape}")


def assemble(name: str, blocks: Iterable[np.ndarray], spec: TensorSpec) -> Tensor:
    """The tensor whose rows ``blocks`` hold: a block that is the whole
    tensor is adopted as it is, others are copied into one array."""
    out, rows = None, 0
    for block in _checked(name, blocks, spec):
        if block.shape == spec.shape:  # the whole tensor; _checked refuses more rows
            out = block
            continue
        if out is None:
            out = np.empty(spec.shape, block.dtype)
        out[rows : rows + len(block)] = block
        rows += len(block)
    return Tensor.adopt(np.empty(spec.shape, spec.dtype) if out is None else out)


def _emit(archive, sink) -> None:
    """Feed the canonical bytes of ``archive`` to ``sink``: the length prefix
    and header as one bytes chunk, then each tensor's row blocks as uint8
    views, from ``archive.blocks`` in name order."""
    layout = archive.layout
    names = sorted(layout)
    header: dict[str, object] = {}
    if archive.metadata:
        header[_METADATA_KEY] = dict(archive.metadata)
    cursor = 0
    for name in names:
        spec = layout[name]
        nbytes = spec.size * np.dtype(spec.dtype).itemsize
        header[name] = {
            "dtype": DTYPES[spec.dtype],
            "shape": list(spec.shape),
            "data_offsets": [cursor, cursor + nbytes],
        }
        cursor += nbytes
    text = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    sink(struct.pack("<Q", len(text)) + text)
    for name in names:
        for block in _checked(name, archive.blocks(name), layout[name]):
            sink(block.reshape(-1).view(np.uint8))
        block = None  # the last block may be the whole tensor: it goes before the next read


def write_archive(archive: ModelArchive) -> bytes:
    """Canonical serialization (stable bytes for equal archives)."""
    chunks: list = []
    _emit(archive, chunks.append)
    return b"".join(chunks)


def load_archive(path) -> ModelArchive:
    """Every tensor of the file at ``path``, read through ``ArchiveReader``."""
    with ArchiveReader(path) as reader:
        return ModelArchive({name: reader.read(name) for name in reader.layout},
                            dict(reader.metadata))


def save_archive(archive, path) -> str:
    """Write the canonical bytes of ``archive`` (a ModelArchive, or anything
    with its ``metadata``, ``layout`` and ``blocks``) to ``path``; returns
    their sha256. One helper thread hashes each block while this thread
    writes it and produces the next; a block larger than _LAG_BYTES is
    hashed in full before the next is produced. A failed write or hash
    raises once the helper has stopped."""
    hasher = hashlib.sha256()
    with open(path, "wb") as fh, feeding(hasher.update) as hashing:
        def write(chunk) -> None:
            hashing.put(chunk)
            fh.write(chunk)
            if len(chunk) > _LAG_BYTES:
                hashing.join()

        _emit(archive, write)
    return hasher.hexdigest()


def archive_digest(archive: ModelArchive) -> str:
    """sha256 of the canonical serialization."""
    hasher = hashlib.sha256()
    _emit(archive, hasher.update)
    return hasher.hexdigest()
