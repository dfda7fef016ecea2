import hashlib
import json
import os
import re
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuperm.archive import (
    ArchiveReader,
    ModelArchive,
    TensorSpec,
    archive_digest,
    load_archive,
    parse_archive,
    save_archive,
    write_archive,
)
from neuperm.errors import ParseError
from neuperm.inference import LayerSpec, ToyNetwork, forward, random_inputs
from neuperm.rng import SeededRng
from neuperm.tensor import Tensor, tensor

# Frozen container bytes recomputed by scripts/oracle_goldens.py.
GOLDEN_ARCHIVE_HEX = (
    "36000000000000007b2277223a7b22646174615f6f666673657473223a5b302c385d2c"
    "226474797065223a22463332222c227368617065223a5b325d7d7d0000803f00000040"
)
EMPTY_ARCHIVE_HEX = "02000000000000007b7d"


def test_write_golden_bytes():
    a = ModelArchive({"w": tensor([1.0, 2.0])})
    assert write_archive(a).hex() == GOLDEN_ARCHIVE_HEX


def test_write_empty_archive():
    assert write_archive(ModelArchive()).hex() == EMPTY_ARCHIVE_HEX
    assert parse_archive(bytes.fromhex(EMPTY_ARCHIVE_HEX)).tensors == {}


def test_parse_golden_bytes():
    a = parse_archive(bytes.fromhex(GOLDEN_ARCHIVE_HEX))
    assert list(a.tensors) == ["w"]
    assert a.tensors["w"].data.tolist() == [1.0, 2.0]
    assert a.tensors["w"].dtype == "float32"


def test_canonical_writes_are_order_independent():
    t1, t2 = tensor([1.0]), tensor([2.0, 3.0])
    a = ModelArchive({"a": t1, "b": t2})
    b = ModelArchive({"b": t2, "a": t1})
    assert write_archive(a) == write_archive(b)
    assert archive_digest(a) == archive_digest(b)


def test_metadata_roundtrip():
    a = ModelArchive({"w": tensor([1.0])}, {"origin": "unit-test", "k": "v"})
    back = parse_archive(write_archive(a))
    assert back.metadata == {"origin": "unit-test", "k": "v"}
    assert back.same_bits(a)


def test_f16_roundtrip_bit_exact():
    vals = SeededRng(3).gaussian_block(32).astype(np.float16).reshape(4, 8)
    a = ModelArchive({"h": Tensor(vals)})
    back = parse_archive(write_archive(a))
    assert back.same_bits(a)


def test_zero_size_tensor_roundtrip():
    a = ModelArchive({"z": tensor(np.zeros((0, 4), dtype=np.float32))})
    back = parse_archive(write_archive(a))
    assert back.tensors["z"].shape == (0, 4)


def test_replace_and_param_count():
    a = ModelArchive({"w": tensor([1.0, 2.0]), "b": tensor([3.0])})
    assert a.param_count == 3
    b = a.replace({"b": tensor([9.0])})
    assert a.tensors["b"].data.tolist() == [3.0]
    assert b.tensors["b"].data.tolist() == [9.0]
    with pytest.raises(KeyError):
        a.replace({"nope": tensor([0.0])})


def test_save_load_roundtrip(tmp_path):
    a = ModelArchive({"w": tensor([[1.5, -2.5]]), "v": tensor([0.25], dtype="float16")})
    p = tmp_path / "m.safetensors"
    save_archive(a, p)
    assert load_archive(p).same_bits(a)


def test_save_returns_digest_of_file_bytes(tmp_path):
    a = ModelArchive(
        {"w": tensor([[1.5, -2.5]]), "v": tensor([0.25, 3.0, -1.0], dtype="float16")},
        {"origin": "unit-test"},
    )
    p = tmp_path / "m.safetensors"
    digest = save_archive(a, p)
    assert digest == hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest == archive_digest(a) == hashlib.sha256(write_archive(a)).hexdigest()
    assert p.read_bytes() == write_archive(a)


def _mib_archive() -> ModelArchive:
    """Two tensors, 1 MiB each: more than one write and one sha256 update."""
    return ModelArchive({
        "a": tensor(np.arange(1 << 18, dtype=np.float32)),
        "b": tensor(-np.arange(1 << 18, dtype=np.float32)),
    })


def test_save_leaves_no_helper_thread(tmp_path):
    """save_archive hashes on a helper thread and has joined it on return."""
    before = threading.active_count()
    a = _mib_archive()
    p = tmp_path / "m.safetensors"
    assert save_archive(a, p) == hashlib.sha256(p.read_bytes()).hexdigest()
    assert threading.active_count() == before


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is Linux's always-full device")
def test_save_to_full_device_raises_and_leaves_no_helper_thread():
    """A write that fails (ENOSPC) raises OSError once the hashing helper
    has stopped."""
    before = threading.active_count()
    with pytest.raises(OSError):
        save_archive(_mib_archive(), "/dev/full")
    assert threading.active_count() == before


class _Blocks:
    """An archive-like object whose tensor "w" comes out as ``blocks``."""

    def __init__(self, blocks):
        self.metadata, self.blocks_of_w = {}, blocks
        self.layout = {"w": TensorSpec("float32", (3, 2)), "z": TensorSpec("float16", ())}

    def blocks(self, name):
        return self.blocks_of_w if name == "w" else (np.zeros((), np.float16),)


_W = np.arange(6, dtype=np.float32).reshape(3, 2)


@pytest.mark.parametrize("blocks, text", [
    ([_W[:1], _W[1:]], None),
    ([_W[:0], _W[:2], _W[2:]], None),
    ([_W[:2]], "its blocks hold 2 of the 3 rows"),
    ([], "its blocks hold 0 of the 3 rows"),
    ([_W, _W[:1]], "a block of float32 (1, 2) does not fit"),
    ([_W[:, :1]], "a block of float32 (3, 1) does not fit"),
    ([_W.reshape(6)], "a block of float32 (6,) does not fit"),
    ([_W.astype(np.float16)], "a block of float16 (3, 2) does not fit"),
    ([_W.astype(">f4")], "a block of >f4 (3, 2) does not fit"),
])
def test_blocks_are_checked_against_the_header(tmp_path, blocks, text):
    """Row blocks that add up to the header's shape are written as one
    tensor; any others raise ValueError naming the tensor, when saved or
    assembled in memory."""
    if text is None:
        assert write_archive(_Blocks(blocks)) == write_archive(
            ModelArchive({"w": tensor(_W), "z": tensor(0.0, dtype="float16")}))
        assert ModelArchive({"w": tensor(_W)}).map(lambda n, t: blocks).tensors["w"].same_bits(
            tensor(_W))
        return
    with pytest.raises(ValueError, match=rf"^tensor 'w': {re.escape(text)}"):
        save_archive(_Blocks(blocks), tmp_path / "x")
    with pytest.raises(ValueError, match=rf"^tensor 'w': {re.escape(text)}"):
        ModelArchive({"w": tensor(_W)}).map(lambda n, t: blocks)


def test_map_adopts_a_whole_tensor_block():
    a = ModelArchive({"w": tensor(_W), "z": tensor(1.5)})
    mapped = a.map(lambda n, t: (t.data,))
    assert all(mapped.tensors[n].data is a.tensors[n].data for n in a.tensors)


# ------------------------------------------------------- aligned loading

def _misaligned_archive() -> tuple[ModelArchive, ToyNetwork]:
    """A dense net whose archive packs an odd-length F16 bias before each F32
    weight, so "b" sits 2 bytes off a 4-byte boundary within the payload and
    "d" on one; metadata padding puts the payload itself at an odd offset."""
    rng = SeededRng(0xA11)
    tensors = {
        "a": Tensor(rng.gaussian_block(3).astype(np.float16)),
        "b": Tensor(rng.gaussian_block(24).astype(np.float32).reshape(3, 8)),
        "c": Tensor(rng.gaussian_block(5).astype(np.float16)),
        "d": Tensor(rng.gaussian_block(15).astype(np.float32).reshape(5, 3)),
    }
    for pad in range(8):
        archive = ModelArchive(tensors, {"pad": "x" * pad})
        (header_len,) = struct.unpack_from("<Q", write_archive(archive))
        if (8 + header_len) % 2:
            break
    net = ToyNetwork(
        layers=(
            LayerSpec("dense", {"weight": "b", "bias": "a"}),
            LayerSpec("relu"),
            LayerSpec("dense", {"weight": "d", "bias": "c"}),
        ),
        input_kind="vector",
        input_shape=(8,),
    )
    return archive, net


def _payload_offsets(raw: bytes) -> dict[str, int]:
    (header_len,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8 : 8 + header_len])
    header.pop("__metadata__")
    return {name: entry["data_offsets"][0] for name, entry in header.items()}


def test_load_is_aligned_and_shares_one_buffer(tmp_path):
    archive, net = _misaligned_archive()
    raw = write_archive(archive)
    assert (len(raw) - 172) % 4 != 0  # the payload (172 bytes) starts off 4-byte alignment
    offsets = _payload_offsets(raw)
    assert offsets == {"a": 0, "b": 6, "c": 102, "d": 112}
    p = tmp_path / "m.safetensors"
    save_archive(archive, p)

    loaded = load_archive(p)
    assert loaded.same_bits(archive)
    for t in loaded.tensors.values():
        assert t.data.flags.aligned and not t.data.flags.writeable
    # tensors whose offset suits their dtype are views of the load buffer, at
    # their file offsets from a payload start on a 64-byte boundary; "b" is not
    # 4-byte aligned there, so it alone is copied
    start = loaded.tensors["a"].data.ctypes.data
    assert start % 64 == 0
    for name in ("c", "d"):
        assert loaded.tensors[name].data.ctypes.data - start == offsets[name]
    assert loaded.tensors["b"].data.base is None

    parsed = parse_archive(raw)
    assert parsed.same_bits(archive)
    assert all(t.data.flags.aligned for t in parsed.tensors.values())

    for x in random_inputs(net, 4, seed=5):
        want = forward(net, archive, x)
        for other in (loaded, parsed):
            got = forward(net, other, x)
            assert got.tobytes() == want.tobytes()


def test_parse_copies_only_what_it_cannot_share():
    a = ModelArchive({"w": tensor([1.0, 2.0])}, {"pad": "xxxx"})
    raw = write_archive(a)
    assert (len(raw) - 8) % 4 == 0  # payload offset 4-byte aligned
    frozen = np.frombuffer(raw, dtype=np.uint8).copy()
    frozen.setflags(write=False)
    shared = parse_archive(frozen).tensors["w"].data
    assert np.shares_memory(shared, frozen) and not shared.flags.writeable
    # a writable buffer could change under the tensor, so its data is copied
    writable = np.frombuffer(raw, dtype=np.uint8).copy()
    copied = parse_archive(writable).tensors["w"].data
    assert not np.shares_memory(copied, writable) and not copied.flags.writeable
    assert parse_archive(bytearray(raw)).same_bits(a)


# ------------------------------------------------------- malformed inputs

def _mangle_header(doc: dict, payload: bytes = b"") -> bytes:
    text = json.dumps(doc, separators=(",", ":")).encode()
    return struct.pack("<Q", len(text)) + text + payload


def test_truncated_prefix():
    with pytest.raises(ParseError):
        parse_archive(b"\x01\x02\x03")


def test_header_overruns_file():
    with pytest.raises(ParseError, match="overruns"):
        parse_archive(struct.pack("<Q", 100) + b"{}")


def test_implausible_header_length():
    with pytest.raises(ParseError, match="implausibly large"):
        parse_archive(struct.pack("<Q", 1 << 62) + b"{}")


def test_header_bad_utf8():
    raw = b"\xff\xfe{}"
    with pytest.raises(ParseError, match="UTF-8"):
        parse_archive(struct.pack("<Q", len(raw)) + raw)


def test_header_bad_json():
    raw = b"{nope"
    with pytest.raises(ParseError, match="JSON"):
        parse_archive(struct.pack("<Q", len(raw)) + raw)


def test_header_nested_too_deeply():
    raw = b"[" * 200_000  # past the JSON parser's recursion limit
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_archive(struct.pack("<Q", len(raw)) + raw)


def test_header_not_object():
    raw = b"[1,2]"
    with pytest.raises(ParseError, match="object"):
        parse_archive(struct.pack("<Q", len(raw)) + raw)


def test_duplicate_names_rejected():
    raw = (
        b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
        b'"w":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
    )
    blob = struct.pack("<Q", len(raw)) + raw + b"\x00" * 8
    with pytest.raises(ParseError, match="duplicate"):
        parse_archive(blob)


def test_unsupported_dtype():
    doc = {"w": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}
    with pytest.raises(ParseError, match="dtype"):
        parse_archive(_mangle_header(doc, b"\x00" * 8))


def test_malformed_shape():
    doc = {"w": {"dtype": "F32", "shape": [-1], "data_offsets": [0, 4]}}
    with pytest.raises(ParseError, match="shape"):
        parse_archive(_mangle_header(doc, b"\x00" * 4))
    doc = {"w": {"dtype": "F32", "shape": "x", "data_offsets": [0, 4]}}
    with pytest.raises(ParseError, match="shape"):
        parse_archive(_mangle_header(doc, b"\x00" * 4))


def test_missing_fields():
    doc = {"w": {"dtype": "F32", "shape": [1]}}
    with pytest.raises(ParseError, match="lacks"):
        parse_archive(_mangle_header(doc, b"\x00" * 4))


def test_entry_not_an_object():
    with pytest.raises(ParseError, match="entry for 'w' must be an object"):
        parse_archive(_mangle_header({"w": [0, 4]}, b"\x00" * 4))


def test_inverted_offsets():
    doc = {"w": {"dtype": "F32", "shape": [1], "data_offsets": [4, 0]}}
    with pytest.raises(ParseError, match="inverted"):
        parse_archive(_mangle_header(doc, b"\x00" * 8))


def test_offsets_overrun_payload():
    doc = {"w": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}
    with pytest.raises(ParseError, match="overrun"):
        parse_archive(_mangle_header(doc, b"\x00" * 8))


def test_size_mismatch():
    doc = {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
    with pytest.raises(ParseError, match="needs"):
        parse_archive(_mangle_header(doc, b"\x00" * 8))


def test_overlapping_tensors():
    doc = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    with pytest.raises(ParseError, match="overlap"):
        parse_archive(_mangle_header(doc, b"\x00" * 12))


def test_empty_name_rejected():
    doc = {"": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
    with pytest.raises(ParseError, match="empty"):
        parse_archive(_mangle_header(doc, b"\x00" * 4))


def test_bad_metadata_rejected():
    doc = {"__metadata__": {"k": 5}}
    with pytest.raises(ParseError, match="metadata"):
        parse_archive(_mangle_header(doc))


def test_parse_error_carries_offset():
    try:
        parse_archive(struct.pack("<Q", 1 << 62) + b"{}")
    except ParseError as e:
        assert e.offset == 0
        assert "at byte 0" in str(e)
    else:
        pytest.fail("expected ParseError")


# ------------------------------------------------------------ bulk checks

def _random_archive(seed: int) -> ModelArchive:
    rng = SeededRng(seed)
    names = [f"t{k}" for k in range(1 + rng.bounded(4))]
    tensors = {}
    for name in names:
        nd = 1 + rng.bounded(3)
        shape = tuple(1 + rng.bounded(5) for _ in range(nd))
        count = int(np.prod(shape))
        vals = rng.gaussian_block(count).reshape(shape)
        dt = np.float16 if rng.bounded(2) else np.float32
        tensors[name] = Tensor(vals.astype(dt))
    meta = {"seed": str(seed)} if rng.bounded(2) else {}
    return ModelArchive(tensors, meta)


def test_thousand_roundtrips():
    for seed in range(1000):
        a = _random_archive(seed)
        assert parse_archive(write_archive(a)).same_bits(a), f"seed {seed}"


def _mutated(raw: bytes, rng: SeededRng) -> bytes:
    """`raw` with one byte flipped, its tail cut, garbage inserted or a span
    deleted, as `rng` picks."""
    buf = bytearray(raw)
    op = rng.bounded(4)
    if op == 0 and buf:  # flip a byte
        buf[rng.bounded(len(buf))] ^= 1 + rng.bounded(255)
    elif op == 1 and buf:  # truncate
        del buf[rng.bounded(len(buf)) :]
    elif op == 2:  # insert garbage
        pos = rng.bounded(len(buf) + 1)
        buf[pos:pos] = bytes([rng.bounded(256) for _ in range(1 + rng.bounded(4))])
    elif buf:  # delete a span
        pos = rng.bounded(len(buf))
        del buf[pos : pos + 1 + rng.bounded(4)]
    return bytes(buf)


def test_mutation_fuzz_only_typed_errors():
    """Byte-level corruption may fail, but only ever with ParseError."""
    base = write_archive(_random_archive(77))
    golden = bytes.fromhex(GOLDEN_ARCHIVE_HEX)
    corpora = [base, golden]
    rng = SeededRng(0xF022)
    for trial in range(10_000):
        try:
            parse_archive(_mutated(corpora[trial % len(corpora)], rng))
        except ParseError:
            pass  # the only acceptable failure type


@given(st.integers(0, 2**32))
@settings(max_examples=60)
def test_roundtrip_property(seed):
    a = _random_archive(seed)
    assert parse_archive(write_archive(a)).same_bits(a)


# ------------------------------------------------------- streamed reading

def test_reader_agrees_with_parse_on_mutated_files(tmp_path):
    """ArchiveReader checks a file's header with parse_archive's validator:
    on a corrupted file both refuse it with the same error, or both give the
    same metadata, layout and tensor bits. The reader's digest is the
    file's sha256."""
    corpora = [write_archive(_random_archive(77)), bytes.fromhex(GOLDEN_ARCHIVE_HEX)]
    rng = SeededRng(0x5EAD)
    path = tmp_path / "m.safetensors"
    accepted = 0
    for trial in range(2000):
        raw = _mutated(corpora[trial % len(corpora)], rng)
        path.write_bytes(raw)
        try:
            want = parse_archive(raw)
        except ParseError as e:
            with pytest.raises(ParseError) as got:
                ArchiveReader(path).close()
            assert str(got.value) == str(e), raw
            continue
        with ArchiveReader(path) as reader:
            assert reader.metadata == want.metadata and reader.layout == want.layout
            assert reader.param_count == want.param_count
            read = ModelArchive({name: reader.read(name) for name in reader.layout},
                                reader.metadata)
            assert read.same_bits(want), raw
            assert reader.digest() == hashlib.sha256(raw).hexdigest()
        accepted += 1
    assert accepted > 100


def test_reader_reads_aligned_read_only_tensors(tmp_path):
    """Each tensor comes back in a 64-byte-aligned, read-only buffer of its
    own, also where the file stores it misaligned; a big file is hashed in
    several chunks."""
    archive, _ = _misaligned_archive()
    archive = archive.replace({"d": tensor(np.arange(3 << 20, dtype=np.float32) / 7)})
    path = tmp_path / "m.safetensors"
    digest = save_archive(archive, path)
    with ArchiveReader(path) as reader:
        for name, want in archive.tensors.items():
            got = reader.read(name)
            assert got.data.ctypes.data % 64 == 0 and not got.data.flags.writeable
            assert got.same_bits(want), name
        assert reader.digest() == digest


def test_reader_refuses_a_tensor_cut_short(tmp_path):
    """A file that shrinks after its header was read gives a ParseError
    naming the tensor that was cut short, at the byte where the file ends."""
    archive = _mib_archive()
    path = tmp_path / "m.safetensors"
    save_archive(archive, path)
    size = path.stat().st_size
    with ArchiveReader(path) as reader:
        os.truncate(path, size - 12)
        assert reader.read("a").same_bits(archive.tensors["a"])
        with pytest.raises(ParseError, match=r"^tensor 'b' is cut short: the file ends "
                           rf"1048564 bytes into its 1048576 \(at byte {size - 12}\)$"):
            reader.read("b")


def test_reader_shared_by_threads(tmp_path):
    """Threads that hash the file and read tensors through one reader at
    once, switching every microsecond, each get the file's digest and every
    tensor's bits: the lock keeps each seek with its read."""
    archive = _mib_archive()
    path = tmp_path / "m.safetensors"
    digest = save_archive(archive, path)
    results, interval = [], sys.getswitchinterval()

    def work(reader, i):
        if i % 2:
            results.append(reader.digest() == digest)
        else:
            results.append(all(reader.read(n).same_bits(t) for n, t in archive.tensors.items()))

    sys.setswitchinterval(1e-6)
    try:
        with ArchiveReader(path) as reader:
            threads = [threading.Thread(target=work, args=(reader, i)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 6
