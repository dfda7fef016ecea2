import hashlib
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neuperm.engine as engine
import neuperm.stego as stego
import neuperm.sweep as sweep
from neuperm.archive import ArchiveReader, ModelArchive, save_archive, write_archive
from neuperm.disrupt import apply_disruptor, parse_disruptor, tensor_rewrite
from neuperm.errors import CapacityError
from neuperm.rng import SeededRng, derive_seed, words_at
from neuperm.stego import (
    SS_MIN_RATIO,
    AttackPlan,
    _bit_slots,
    _chip_words,
    _chunk_cols,
    _slot_groups,
    _spread_block,
    _tile_rows,
    decode_correlations,
    eligible_names,
    extract_many,
    host_size,
    host_vector,
    lsb_embed,
    lsb_extract,
    parse_ecc,
    sample_positions,
    sign_embed,
    sign_extract,
    ss_correlations,
    ss_despread_many,
    ss_embed,
    ss_extract,
)
from neuperm.tensor import Tensor, tensor

from conftest import fail_chip_sweeps, random_payload


def _lsb_plan(archive, payload, bits_per_param, *, seed, ecc=parse_ecc("none")) -> AttackPlan:
    return AttackPlan.for_payload("lsb", payload, archive, seed=seed, ecc=ecc,
                                  param=bits_per_param)


def _sign_plan(archive, payload, *, seed, ecc=parse_ecc("none")) -> AttackPlan:
    return AttackPlan.for_payload("sign", payload, archive, seed=seed, ecc=ecc)


# --------------------------------------------------------------- hosts

def test_eligible_names_sorted_and_filtered():
    arch = ModelArchive(
        {
            "b": tensor([1.0]),
            "a": tensor([[1.0, 2.0]]),
            "c": tensor(np.zeros((2, 2), dtype=np.float32)),
        }
    )
    assert eligible_names(arch) == ("a", "b", "c")
    assert eligible_names(arch, min_ndim=2) == ("a", "c")


def _with_host(archive, names, vec):
    """`archive` with the flat float32 host `vec` written back over the
    tensors `names`, each cast to its own dtype."""
    cuts = np.cumsum([archive.tensors[n].size for n in names])[:-1]
    return archive.replace({
        n: Tensor.adopt(v.reshape(archive.tensors[n].shape).astype(archive.tensors[n].dtype))
        for n, v in zip(names, np.split(vec, cuts))})


@pytest.mark.parametrize("bundle", ["mlp_bundle", "gqa_bundle"])
def test_host_vector_concatenates_eligible_tensors(request, bundle):
    """The host is each named tensor's float32 values in order (float16
    tensors included)."""
    archive, _, _ = request.getfixturevalue(bundle)
    names = eligible_names(archive)
    want = np.concatenate([archive.tensors[n].f32().ravel() for n in names])
    vec = host_vector(archive, names)
    assert vec.dtype == np.float32 and vec.size == host_size(archive, names)
    assert vec.tobytes() == want.tobytes()
    assert _with_host(archive, names, vec).same_bits(archive)


def test_ss_embed_keeps_f16_dtype(gqa_bundle):
    archive, _, _ = gqa_bundle
    payload = random_payload(1042, 1)
    carrier = ss_embed(archive, payload, _plan(archive, payload))
    assert carrier.layout == archive.layout
    assert not carrier.same_bits(archive)


def test_sample_positions_contract():
    pos = sample_positions(1000, 300, 5)
    assert pos.shape == (300,)
    assert len(set(pos.tolist())) == 300
    assert pos.min() >= 0 and pos.max() < 1000
    assert np.array_equal(pos, sample_positions(1000, 300, 5))
    assert not np.array_equal(pos, sample_positions(1000, 300, 6))
    with pytest.raises(CapacityError):
        sample_positions(10, 11, 0)
    assert sample_positions(5, 0, 1).size == 0


def test_sample_positions_uniformish():
    # draw counts per decile over many seeds: no decile should be starved
    counts = np.zeros(10)
    for seed in range(200):
        pos = sample_positions(1000, 50, seed)
        counts += np.bincount(pos // 100, minlength=10)
    assert counts.min() > 0.7 * counts.mean()


def test_sample_positions_frozen():
    # printed by scripts/oracle_goldens.py (pure-Python partial Fisher-Yates)
    pos = sample_positions(2**20, 98304, 7)
    assert pos.dtype == np.int64 and pos.shape == (98304,)
    assert hashlib.sha256(pos.astype("<i8").tobytes()).hexdigest() == (
        "727202842985234bbabf22124c500d169ab94186483b577f3f0c0a96eff81e24"
    )


def test_positions_drawn_once_per_seed(small_host_bundle, monkeypatch):
    archive, _, _ = small_host_bundle
    calls = []

    def counting(total, count, seed):
        calls.append((total, count, seed))
        return sample_positions(total, count, seed)

    monkeypatch.setattr(stego, "sample_positions", counting)
    _slot_groups.cache_clear()
    payload = random_payload(1031, 32)
    plan = _lsb_plan(archive, payload, 2, seed=41)
    carrier = lsb_embed(archive, payload, plan)
    for _ in range(3):
        assert lsb_extract(carrier, plan) == payload
    plan = _sign_plan(archive, payload, seed=41)
    carrier = sign_embed(archive, payload, plan)
    for _ in range(3):
        assert sign_extract(carrier, plan) == payload
    assert len(calls) == 2  # one lsb draw, one sign draw
    _slot_groups.cache_clear()
    ((name, local, slot_idx),) = _slot_groups(("w",), (1000,), 10, 3)
    assert name == "w" and not local.flags.writeable and not slot_idx.flags.writeable
    assert np.all(np.diff(local) > 0)
    assert np.array_equal(local[np.argsort(slot_idx)], sample_positions(1000, 10, 3))


# ----------------------------------------------------------------- lsb

@pytest.mark.parametrize("bpp", [1, 2, 4, 8])
@pytest.mark.parametrize("spec", ["none", "hamming74", "repetition:3"])
def test_lsb_roundtrip(small_host_bundle, bpp, spec):
    archive, _, _ = small_host_bundle
    payload = random_payload(1001, 64)
    ecc = parse_ecc(spec)
    plan = _lsb_plan(archive, payload, bpp, seed=17, ecc=ecc)
    carrier = lsb_embed(archive, payload, plan)
    got = lsb_extract(carrier, plan)
    assert got == payload


def test_lsb_perturbation_is_tiny(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1002, 64)
    carrier = lsb_embed(archive, payload, _lsb_plan(archive, payload, 2, seed=3))
    for name in archive.tensors:
        a = archive.tensors[name].f32()
        b = carrier.tensors[name].f32()
        # clearing/setting 2 mantissa bits moves a value by < 4 ulp
        ulp = np.spacing(np.abs(a).astype(np.float32))
        assert np.all(np.abs(a - b) <= 4 * ulp), name


def test_lsb_wrong_seed_fails(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1003, 64)
    carrier = lsb_embed(archive, payload, _lsb_plan(archive, payload, 1, seed=17))
    assert lsb_extract(carrier, _lsb_plan(archive, payload, 1, seed=18)) != payload


def test_lsb_untouched_outside_positions(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1004, 8)
    carrier = lsb_embed(archive, payload, _lsb_plan(archive, payload, 1, seed=9))
    names = eligible_names(archive)
    a = host_vector(archive, names).view(np.uint32)
    b = host_vector(carrier, names).view(np.uint32)
    changed = int((a != b).sum())
    assert changed <= 64  # at most one slot per coded bit


def test_lsb_capacity_error(mlp_bundle):
    archive, _, _ = mlp_bundle  # 450 params
    with pytest.raises(CapacityError):
        payload = random_payload(1, 125)
        lsb_embed(archive, payload, _lsb_plan(archive, payload, 1, seed=0))


def test_lsb_bpp_validation(mlp_bundle):
    archive, _, _ = mlp_bundle
    with pytest.raises(ValueError):
        lsb_embed(archive, b"x", _lsb_plan(archive, b"x", 0, seed=0))
    with pytest.raises(ValueError):
        lsb_embed(archive, b"x", _lsb_plan(archive, b"x", 9, seed=0))
    for bpp in (0, 9, 33, 40):
        with pytest.raises(ValueError, match="1..8"):
            lsb_extract(archive, _lsb_plan(archive, b"x", bpp, seed=0))


def test_lsb_embed_carrier_frozen(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1030, 64)
    plan = _lsb_plan(archive, payload, 2, seed=31, ecc=parse_ecc("hamming74"))
    carrier = lsb_embed(archive, payload, plan)
    assert hashlib.sha256(write_archive(carrier)).hexdigest() == (
        "4a88986e32b0056f72bab9afb0c6426ee027e0f38e9b52ff7c7deebbebfd991f"
    )


# ---------------------------------------------------------------- sign

@pytest.mark.parametrize("spec", ["none", "repetition:3"])
def test_sign_roundtrip(small_host_bundle, spec):
    archive, _, _ = small_host_bundle
    payload = random_payload(1005, 32)
    ecc = parse_ecc(spec)
    plan = _sign_plan(archive, payload, seed=4, ecc=ecc)
    carrier = sign_embed(archive, payload, plan)
    assert sign_extract(carrier, plan) == payload


def test_sign_changes_only_signs(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1006, 32)
    carrier = sign_embed(archive, payload, _sign_plan(archive, payload, seed=4))
    for name in archive.tensors:
        assert np.array_equal(
            np.abs(archive.tensors[name].f32()), np.abs(carrier.tensors[name].f32())
        ), name


def test_sign_wrong_seed_fails(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1007, 32)
    carrier = sign_embed(archive, payload, _sign_plan(archive, payload, seed=4))
    assert sign_extract(carrier, _sign_plan(archive, payload, seed=5)) != payload


def test_sign_embed_carrier_frozen(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1030, 64)
    plan = _sign_plan(archive, payload, seed=32, ecc=parse_ecc("repetition:3"))
    carrier = sign_embed(archive, payload, plan)
    assert hashlib.sha256(write_archive(carrier)).hexdigest() == (
        "f677b296f7b1d07635972fd2b2a9b85c0ad2d9f7660af1552b83e97648ee3641"
    )


@pytest.mark.parametrize("method", ["lsb", "sign", "ss"])
def test_bit_attack_refuses_a_plan_it_does_not_match(small_host_bundle, method):
    """Each embedder refuses a payload whose digest is not its plan's, and no
    attack reads another method's plan."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1041, 16)
    plans = {"lsb": _lsb_plan(archive, payload, 2, seed=8),
             "sign": _sign_plan(archive, payload, seed=8), "ss": _plan(archive, payload)}
    embed, extract = {"lsb": (lsb_embed, lsb_extract), "sign": (sign_embed, sign_extract),
                      "ss": (ss_embed, ss_extract)}[method]
    with pytest.raises(ValueError, match="does not match plan digest"):
        embed(archive, payload[::-1], plans[method])
    for other in sorted(set(plans) - {method}):
        with pytest.raises(ValueError, match=f"the {method} attack cannot read a '{other}' plan"):
            embed(archive, payload, plans[other])
        with pytest.raises(ValueError, match=f"the {method} attack cannot read a '{other}' plan"):
            extract(archive, plans[other])


# ---------------------------------------------------------- bit fields

def _special_values_host() -> ModelArchive:
    """Small mixed float32/float16 host in which every third value is NaN,
    -NaN, +/-0.0 or +/-inf."""
    special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf]
    tensors = {}
    for i, (dtype, shape) in enumerate(
        ((np.float32, (24, 20)), (np.float16, (30, 16)), (np.float16, (40,)))
    ):
        flat = np.random.default_rng(i).standard_normal(shape).astype(dtype).ravel()
        flat[::3] = np.resize(np.array(special, dtype=dtype), flat[::3].size)
        tensors[f"t{i}"] = Tensor(flat.reshape(shape))
    return ModelArchive(tensors)


@pytest.mark.parametrize("attack", ["lsb:1", "lsb:8", "sign"])
@pytest.mark.parametrize("host", ["f16_gqa", "specials"])
def test_bit_attack_writes_only_its_field(gqa_bundle, host, attack):
    """lsb:k owns the low k bits of a sampled parameter's raw word and sign
    its top bit (31 for float32, 15 for float16). The payload round-trips,
    and no other bit of any word changes, NaN, -0.0 and inf included."""
    archive = gqa_bundle[0] if host == "f16_gqa" else _special_values_host()
    payload = random_payload(1040, 16)
    method, _, k = attack.partition(":")
    width = int(k or 1)
    if method == "lsb":
        plan = _lsb_plan(archive, payload, width, seed=8)
        carrier = lsb_embed(archive, payload, plan)
        assert lsb_extract(carrier, plan) == payload
    else:
        plan = _sign_plan(archive, payload, seed=8)
        carrier = sign_embed(archive, payload, plan)
        assert sign_extract(carrier, plan) == payload
    names = eligible_names(archive)
    assert set(names) == set(archive.tensors)
    sampled = sample_positions(host_size(archive, names), -(-len(payload) * 8 // width),
                               derive_seed(8, f"{method}/positions"))
    at = changed = 0
    for name in names:
        a, b = archive.tensors[name].data, carrier.tensors[name].data
        assert b.dtype == a.dtype and b.shape == a.shape
        bits = a.itemsize * 8
        uint = np.uint32 if bits == 32 else np.uint16
        diff = a.view(uint).ravel() ^ b.view(uint).ravel()
        owned = (1 << width) - 1 if method == "lsb" else 1 << (bits - 1)
        assert not np.any(diff & uint(~owned & ((1 << bits) - 1))), name
        untouched = np.ones(a.size, dtype=bool)
        untouched[sampled[(sampled >= at) & (sampled < at + a.size)] - at] = False
        assert not np.any(diff[untouched]), name
        changed += int(np.count_nonzero(diff))
        at += a.size
    assert changed > 0


# ------------------------------------------------------ spread spectrum

def _chip_block(plan, start, stop, n_bits):
    """Chips for host positions [start, stop) and all coded bits as +/-1
    float32, (n_bits, stop - start): each byte of a chip word becomes its 8
    chips through one lookup in _CHIP_LUT, for the whole block at once."""
    words = _chip_words(plan, start, stop, n_bits)
    chips = np.take(stego._CHIP_LUT, words.view(np.uint8), axis=0).reshape(n_bits, -1)
    return chips[:, start % 64 : start % 64 + stop - start]


def _plan(archive, payload, gamma=0.02, seed=40, spec="repetition:3"):
    return AttackPlan.for_payload("ss", payload, archive, seed=seed, ecc=parse_ecc(spec),
                                  param=gamma)


def test_chip_block_properties(small_host_bundle):
    archive, _, _ = small_host_bundle
    plan = _plan(archive, random_payload(1010, 16))
    block = _chip_block(plan, 0, 4096, plan.coded_bits)
    assert block.shape == (plan.coded_bits, 4096)
    assert set(np.unique(block).tolist()) == {-1.0, 1.0}
    assert abs(block.mean()) < 0.01  # balanced
    again = _chip_block(plan, 0, 4096, plan.coded_bits)
    assert np.array_equal(block, again)
    # different rows decorrelate
    r = block[0] @ block[1] / block.shape[1]
    assert abs(r) < 0.1


def _unpacked_chips(plan, start, stop, n_bits):
    """Chip block by the plain unpackbits -> *2-1 expansion of the stream words."""
    words_per_bit = -(-plan.host_n // 64)
    w0, w1 = start // 64, -(-stop // 64)
    rows = np.arange(n_bits, dtype=np.uint64)[:, None] * np.uint64(words_per_bit)
    words = words_at(derive_seed(plan.seed, "ss/chips"), rows + np.arange(w0, w1, dtype=np.uint64))
    bits = np.unpackbits(words.view(np.uint8).reshape(n_bits, -1), axis=1, bitorder="little")
    return bits[:, start - w0 * 64 : stop - w0 * 64].astype(np.float32) * 2.0 - 1.0


@pytest.mark.parametrize("start,stop", [(0, 64), (3, 5), (100, 4000), (4031, 9000), (48999, 49152)])
def test_chip_block_matches_unpacked_bits(small_host_bundle, start, stop):
    archive, _, _ = small_host_bundle
    plan = _plan(archive, random_payload(1021, 7))
    got = _chip_block(plan, start, stop, plan.coded_bits)
    assert got.dtype == np.float32
    assert np.array_equal(got, _unpacked_chips(plan, start, stop, plan.coded_bits))


def test_ss_sweeps_match_one_dense_block(small_host_bundle):
    """Blockwise embed and despread equal one product with the whole chip
    matrix, including the partial last block."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1022, 5)
    plan = _plan(archive, payload)
    k = plan.coded_bits
    assert plan.host_n % _chunk_cols(k) != 0 and plan.host_n > _chunk_cols(k)
    chips = _unpacked_chips(plan, 0, plan.host_n, k)
    host = host_vector(archive, plan.eligible)
    coded = plan.ecc.encode(np.unpackbits(np.frombuffer(payload, dtype=np.uint8)))
    b = coded.astype(np.float32) * 2.0 - 1.0
    want = _with_host(archive, plan.eligible, host + plan.gamma * (b @ chips))

    carrier = ss_embed(archive, payload, plan)
    assert write_archive(carrier) == write_archive(want)
    hosts = np.stack([host_vector(carrier, plan.eligible), host])
    assert np.allclose(ss_despread_many(hosts, plan), hosts @ chips.T / plan.host_n, rtol=1e-6)


def test_ss_embed_carrier_frozen(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1020, 16)
    carrier = ss_embed(archive, payload, _plan(archive, payload))
    assert hashlib.sha256(write_archive(carrier)).hexdigest() == (
        "72ff7e4f83fb65641ff94bf3fa84bfad75134119c36c7a1eca3e2c95ca9f3208"
    )


def _odd_host() -> ModelArchive:
    """A host whose second 2-d tensor starts 21 params in, off every
    multiple of 64, and which ends in a vector."""
    rng = np.random.default_rng(26)
    return ModelArchive({"a": Tensor.adopt(rng.standard_normal((3, 7), dtype=np.float32)),
                         "b": Tensor.adopt(rng.standard_normal((37, 41), dtype=np.float32)),
                         "c": Tensor.adopt(rng.standard_normal(5, dtype=np.float32))})


@pytest.mark.parametrize("method", ["lsb", "sign", "ss"])
@pytest.mark.parametrize("host", ["gqa", "odd"])
def test_streamed_embed_matches_in_memory(tmp_path, monkeypatch, gqa_bundle, host, method):
    """Each embedder over an ArchiveReader, which makes the carrier one
    tensor at a time as it is saved, saves the bytes it makes over the same
    archive in memory: on the float16 toy_gqa fixture, and on a host whose
    tensor "b" starts 21 params in, with ss blocks of 64 columns, so a block
    is cut where "b" starts. On that host ss also equals one dense product
    with the whole chip matrix, and every carrier gives its payload back."""
    archive = gqa_bundle[0] if host == "gqa" else _odd_host()
    if host == "odd":
        monkeypatch.setattr(stego, "_SS_BLOCK_BYTES", 0)
        assert _chunk_cols(8) == 64
    payload = random_payload(1043, 1)
    param = {"lsb": 3, "sign": None, "ss": 0.02}[method]
    plan = AttackPlan.for_payload(method, payload, archive, seed=12, ecc=parse_ecc("none"),
                                  param=param)
    embed = {"lsb": lsb_embed, "sign": sign_embed, "ss": ss_embed}[method]
    path = tmp_path / "host.safetensors"
    save_archive(archive, path)
    carrier = embed(archive, payload, plan)
    want = save_archive(carrier, tmp_path / "memory.safetensors")
    with ArchiveReader(path) as reader:
        streamed = save_archive(embed(reader, payload, plan), tmp_path / "streamed.safetensors")
    assert streamed == want
    assert not carrier.same_bits(archive)
    if method == "ss":
        if host == "odd":
            chips = _unpacked_chips(plan, 0, plan.host_n, plan.coded_bits)
            coded = plan.ecc.encode(np.unpackbits(np.frombuffer(payload, dtype=np.uint8)))
            b = coded.astype(np.float32) * 2.0 - 1.0
            dense = host_vector(archive, plan.eligible) + plan.gamma * (b @ chips)
            assert write_archive(carrier) == write_archive(
                _with_host(archive, plan.eligible, dense))
    else:
        with ArchiveReader(tmp_path / "streamed.safetensors") as reader:
            assert {"lsb": lsb_extract, "sign": sign_extract}[method](reader, plan) == payload


@pytest.mark.parametrize("method", ["lsb", "sign"])
@pytest.mark.parametrize("host", ["gqa", "odd"])
def test_streamed_bit_embed_in_row_blocks(tmp_path, monkeypatch, gqa_bundle, host, method):
    """With row blocks of 64 bytes, the lsb and sign embeds over an
    ArchiveReader read, copy and write each tensor in contiguous blocks no
    larger than that (or one row), slots falling in many of them, and save
    the bytes of the embed over the archive in memory, which copies each
    tensor whole."""
    archive = gqa_bundle[0] if host == "gqa" else _odd_host()
    payload = random_payload(1044, 8)
    plan = AttackPlan.for_payload(method, payload, archive, seed=13, ecc=parse_ecc("none"),
                                  param=2 if method == "lsb" else None)
    embed = {"lsb": lsb_embed, "sign": sign_embed}[method]
    want = hashlib.sha256(write_archive(embed(archive, payload, plan))).hexdigest()
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 64)
    path = tmp_path / "host.safetensors"
    save_archive(archive, path)
    with ArchiveReader(path) as reader:
        carrier = embed(reader, payload, plan)
        for name, spec in reader.layout.items():
            row = np.dtype(spec.dtype).itemsize * math.prod(spec.shape[1:])
            assert all(b.nbytes <= max(64, row) for b in carrier.blocks(name)), name
        assert save_archive(carrier, tmp_path / "carrier.safetensors") == want


@pytest.mark.parametrize("host", ["gqa", "odd"])
def test_streamed_ss_embed_in_row_blocks(tmp_path, monkeypatch, gqa_bundle, host):
    """With row blocks of 64 bytes and ss blocks of 64 columns, the ss embed
    over an ArchiveReader reads, adds its chips to and writes each tensor in
    blocks no larger than that (or one row), so its chip pieces are cut at
    the ends of row blocks as well as at multiples of 64 columns. It saves
    the bytes of the embed over the archive in memory, which adds to each
    tensor whole."""
    archive = gqa_bundle[0] if host == "gqa" else _odd_host()
    payload = random_payload(1045, 1)
    plan = AttackPlan.for_payload("ss", payload, archive, seed=14, ecc=parse_ecc("none"),
                                  param=0.02)
    want = hashlib.sha256(write_archive(ss_embed(archive, payload, plan))).hexdigest()
    monkeypatch.setattr(stego, "_SS_BLOCK_BYTES", 0)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 64)
    path = tmp_path / "host.safetensors"
    save_archive(archive, path)
    with ArchiveReader(path) as reader:
        carrier = ss_embed(reader, payload, plan)
        for name, spec in reader.layout.items():
            row = np.dtype(spec.dtype).itemsize * math.prod(spec.shape[1:])
            assert all(b.nbytes <= max(64, row) for b in carrier.blocks(name)), name
        assert save_archive(carrier, tmp_path / "carrier.safetensors") == want


@pytest.mark.parametrize("method", ["lsb", "sign"])
def test_extract_many_reads_slots_from_row_blocks(tmp_path, monkeypatch, gqa_bundle, method):
    """With row blocks of 64 bytes, extract_many over the none and neuperm:1
    rewrites of an ArchiveReader reads each slot's field from the block it
    falls in: slots span many blocks, some blocks hold none, and some slots
    are a block's first or last element. Each payload is the one read from
    that variant built in memory by apply_disruptor."""
    archive, desc, _ = gqa_bundle
    payload = random_payload(1046, 64)
    plan = AttackPlan.for_payload(method, payload, archive, seed=16, ecc=parse_ecc("none"),
                                  param=1 if method == "lsb" else None)
    carrier = {"lsb": lsb_embed, "sign": sign_embed}[method](archive, payload, plan)
    extract = {"lsb": lsb_extract, "sign": sign_extract}[method]
    configs = [parse_disruptor("none"), parse_disruptor("neuperm:1")]
    want = [extract(apply_disruptor(carrier, c, seed=21, descriptor=desc)[0], plan)
            for c in configs]
    assert want[0] == payload != want[1]
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 64)
    save_archive(carrier, tmp_path / "carrier.safetensors")
    seen = []  # (tensor name, block sizes) of each rewrite made

    def recorded(rewrite):
        def blocks(name, t):
            made = list(rewrite(name, t))
            seen.append((name, [b.size for b in made]))
            return made
        return blocks

    with ArchiveReader(tmp_path / "carrier.safetensors") as reader:
        got = extract_many(reader, plan, [
            recorded(tensor_rewrite(c, reader, seed=21, descriptor=desc)[0]) for c in configs])
        local = {name: offsets for name, offsets, _ in _bit_slots(reader, plan)}
    assert got == [(w, None) for w in want]
    spans = empty = first = last = False
    for name, sizes in seen:
        cuts = np.cumsum([0, *sizes])
        held = np.diff(np.searchsorted(local[name], cuts))
        spans |= np.count_nonzero(held) > 1
        empty |= bool(np.any(held == 0))
        first |= bool(np.isin(cuts[:-1], local[name]).any())
        last |= bool(np.isin(cuts[1:] - 1, local[name]).any())
    assert spans and empty and first and last


def _serial_embed(archive, payload, plan):
    """The single-thread embed loop the threaded sweep must reproduce byte for byte."""
    coded = plan.ecc.encode(np.unpackbits(np.frombuffer(payload, dtype=np.uint8)))
    b = coded.astype(np.float32) * 2.0 - 1.0
    out = host_vector(archive, plan.eligible).copy()
    width = _chunk_cols(coded.size)
    for s in range(0, plan.host_n, width):
        e = min(s + width, plan.host_n)
        out[s:e] += plan.gamma * (b @ _chip_block(plan, s, e, coded.size))
    return _with_host(archive, plan.eligible, out)


def _serial_despread(hosts, plan):
    """The single-thread despread loop the threaded sweep must reproduce byte
    for byte: each block's chips times the hosts, one row tile of
    _tile_rows coded bits at a time."""
    k = plan.coded_bits
    y = np.zeros((hosts.shape[0], k))
    width = _chunk_cols(k)
    rows = stego._tile_rows(width)
    for s in range(0, plan.host_n, width):
        e = min(s + width, plan.host_n)
        chips = _chip_block(plan, s, e, k)
        y += np.vstack([chips[r : r + rows] @ hosts[:, s:e].T for r in range(0, k, rows)]).T
    return y / plan.host_n


def _record_sweep(monkeypatch):
    """Wrap _chip_words, which every block of both sweeps calls once, to record
    the start of every block produced, and the thread constructor to record
    every helper thread a sweep starts."""
    starts, helpers = [], []
    real_block, real_thread = stego._chip_words, sweep.threading.Thread

    def recording_block(plan, start, stop, n_bits):
        starts.append(start)
        return real_block(plan, start, stop, n_bits)

    def recording_thread(*args, **kwargs):
        helpers.append(real_thread(*args, **kwargs))
        return helpers[-1]

    monkeypatch.setattr(stego, "_chip_words", recording_block)
    monkeypatch.setattr(sweep.threading, "Thread", recording_thread)
    return starts, helpers


@pytest.mark.parametrize("nbytes,spec", [(5, "repetition:3"), (7, "hamming74")])
@pytest.mark.parametrize("workers", [1, 2, 3, "beyond"])
def test_ss_sweeps_match_serial_at_any_worker_count(small_host_bundle, monkeypatch,
                                                    nbytes, spec, workers):
    """Threaded embed and despread equal the serial loops byte for byte, on a
    host whose last column block is partial, for one and several stacked
    hosts (BLAS gemv and gemm); every block is produced exactly once, and a
    sweep starts min(W, blocks) - 1 helper threads beside the calling one.
    The embed sweeps each host tensor on its own, in blocks cut where the
    tensor starts and at every multiple of the block width within it.

    The serial loops run with BLAS at one thread, as the sweeps do: for some
    shapes a multi-threaded OpenBLAS gemv splits the sum itself (one host,
    98 coded bits over 16000-column blocks rounds differently at two BLAS
    threads), so only a fixed BLAS thread count makes the bytes repeatable.
    """
    archive, _, _ = small_host_bundle
    payload = random_payload(1023, nbytes)
    plan = _plan(archive, payload, spec=spec)
    width = _chunk_cols(plan.coded_bits)
    starts = list(range(0, plan.host_n, width))
    assert plan.host_n % width != 0 and len(starts) >= 3
    embed_starts, embed_sweeps, at = [], [], 0
    for name in plan.eligible:
        stop = at + archive.tensors[name].size
        embed_sweeps.append([at] + [s for s in starts if at < s < stop])
        embed_starts += embed_sweeps[-1]
        at = stop
    assert len(embed_starts) > len(starts)  # a tensor starts inside a block of the grid
    with sweep.blas_single_thread():
        want_carrier = _serial_embed(archive, payload, plan)
        host = host_vector(archive, plan.eligible)
        hosts = np.stack([host_vector(want_carrier, plan.eligible), host, -host])
        want = [_serial_despread(h, plan) for h in (hosts[:1], hosts)]

    count = plan.coded_bits + 1 if workers == "beyond" else workers
    monkeypatch.setattr(sweep, "workers", lambda: count)
    produced, helpers = _record_sweep(monkeypatch)
    carrier = ss_embed(archive, payload, plan)
    assert write_archive(carrier) == write_archive(want_carrier)
    assert sorted(produced) == embed_starts
    assert len(helpers) == sum(min(count, len(cuts)) - 1 for cuts in embed_sweeps)
    for stack, y in zip((hosts[:1], hosts), want):
        produced.clear()
        helpers.clear()
        assert ss_despread_many(stack, plan).tobytes() == y.tobytes()
        assert sorted(produced) == starts
        assert len(helpers) == min(count, len(starts)) - 1


@pytest.mark.parametrize("n_bits", [1, 7, 3072, 65537])
def test_spread_block_equals_float_product(n_bits):
    """The embed's bit count gives the float32 bytes of b @ chips for every
    64-column block of a host whose last block is partial. The coded bits
    copy chip column 0, so that column sums to n_bits: at 65537 it overflows
    a uint16 count."""
    host_n = 3 * 64 + 17
    plan = AttackPlan("ss", 41, "none", "0" * 64, 1, gamma=1, eligible=("w",), host_n=host_n)
    coded = (_chip_block(plan, 0, 1, n_bits)[:, 0] > 0).astype(np.uint8)
    b = coded.astype(np.float32) * 2.0 - 1.0
    for s in range(0, host_n, 64):
        e = min(s + 64, host_n)
        got = _spread_block(plan, s, e, coded)
        assert got.dtype == np.float32 and got.shape == (e - s,)
        assert got.tobytes() == (b @ _chip_block(plan, s, e, n_bits)).tobytes()
        if s == 0:
            assert got[0] == n_bits


@pytest.mark.parametrize("workers", [1, 2])
def test_despread_of_102_hosts_matches_serial(small_host_bundle, monkeypatch, workers):
    """A stack of 102 hosts, taller than any evaluate in the acceptance tests
    stacks, gives the serial loop's correlations byte for byte."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1026, 5)
    plan = _plan(archive, payload)
    carrier = ss_embed(archive, payload, plan)
    host = host_vector(carrier, plan.eligible)
    noise = SeededRng(1027).gaussian_block(101 * host.size).astype(np.float32)
    hosts = np.vstack([host, host + 0.01 * noise.reshape(101, host.size)])
    with sweep.blas_single_thread():
        want = _serial_despread(hosts, plan)
    monkeypatch.setattr(sweep, "workers", lambda: workers)
    assert ss_despread_many(hosts, plan).tobytes() == want.tobytes()


def _host_rewrites(hosts, eligible, archive, rows_per_block):
    """One rewrite per row of `hosts`, yielding that host's values of each
    tensor of `eligible` in blocks of rows_per_block[v] rows (None for the
    whole tensor in one block); a zero-size tensor yields no block."""
    offsets = dict(zip(eligible, np.cumsum([0] + [archive.layout[n].size for n in eligible])))

    def rewrite(host, step):
        def rows(name, t):
            values = host[offsets[name] : offsets[name] + t.size].reshape(t.shape)
            size = step or max(len(values), 1)
            return (values[i : i + size] for i in range(0, len(values), size))
        return rows

    return [rewrite(host, step) for host, step in zip(hosts, rows_per_block)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bundle,width", [
    ("mlp_bundle", 64),  # a tensor smaller than a block; a short last block over two tensors
    ("mlp_bundle", 256),  # fc1 inside one block; the short last block spans three tensors
    ("gqa_bundle", 1600),  # float16; the first block spans three tensors, the last is short
])
def test_piecewise_despread_matches_whole_host(request, monkeypatch, bundle, width, workers):
    """ss_correlations of rewrites that yield the rows of stacked hosts, each
    tensor in one block or in blocks of one or two rows, with zero-size
    eligible tensors after the first and the last, equals ss_despread_many
    of the stacked hosts and the serial loop, byte for byte, on hosts whose
    tensor sizes are not multiples of the block width. Its blocks are those
    of the whole-host grid, so none is cut at a tensor's end."""
    archive, _, _ = request.getfixturevalue(bundle)
    names = eligible_names(archive, min_ndim=2)
    empty = tensor(np.zeros((0, 3), dtype=np.float32))
    archive = ModelArchive({**archive.tensors, "empty.a": empty, "empty.b": empty})
    eligible = (names[0], "empty.a", *names[1:], "empty.b")
    host_n = host_size(archive, names)
    plan = AttackPlan("ss", 1031, "none", "0" * 64, 2, gamma=1, eligible=eligible, host_n=host_n)
    monkeypatch.setattr(stego, "_SS_BLOCK_BYTES", 4 * plan.coded_bits * width)
    monkeypatch.setattr(stego, "SS_MIN_RATIO", 1)  # toy_mlp holds 416 params for 16 coded bits
    assert _chunk_cols(plan.coded_bits) == width and host_n % width
    host = host_vector(archive, names)
    noise = SeededRng(1032).gaussian_block(2 * host_n).astype(np.float32).reshape(2, host_n)
    hosts = np.vstack([host, host + 0.1 * noise])
    with sweep.blas_single_thread():
        want = _serial_despread(hosts, plan)
    monkeypatch.setattr(sweep, "workers", lambda: workers)
    assert ss_despread_many(hosts, plan).tobytes() == want.tobytes()
    produced, _ = _record_sweep(monkeypatch)
    rewrites = _host_rewrites(hosts, eligible, archive, [None, 1, 2])
    assert ss_correlations(archive, plan, rewrites).tobytes() == want.tobytes()
    assert sorted(produced) == list(range(0, host_n, width))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_hosts", [1, 2, 5, 12])
def test_despread_row_tiles_match_serial(small_host_bundle, monkeypatch, n_hosts, workers):
    """With 600 coded bits, each 2560-column block's chips are expanded in
    row tiles of 256, 256 and 88 coded bits, on a host whose last block is
    short. ss_despread_many and ss_correlations of stacked hosts equal the
    serial loop over the same tiles byte for byte, and no expanded tile
    holds more rows than _tile_rows allows."""
    archive, _, _ = small_host_bundle
    plan = _plan(archive, random_payload(1036, 75), spec="none")
    k, width = plan.coded_bits, _chunk_cols(plan.coded_bits)
    rows = _tile_rows(width)
    assert (k, width, rows) == (600, 2560, 256) and plan.host_n % width
    noise = SeededRng(1037).gaussian_block(n_hosts * plan.host_n).astype(np.float32)
    hosts = host_vector(archive, plan.eligible) + noise.reshape(n_hosts, -1)
    with sweep.blas_single_thread():
        want = _serial_despread(hosts, plan).tobytes()
    tiles, real_take = [], np.take

    def recording_take(a, indices, *args, **kwargs):
        if a is stego._CHIP_LUT:
            tiles.append(len(kwargs["out"]))
        return real_take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    monkeypatch.setattr(sweep, "workers", lambda: workers)
    rewrites = _host_rewrites(hosts, plan.eligible, archive, [None, 1, 2] * 4)
    assert ss_despread_many(hosts, plan).tobytes() == want
    assert ss_correlations(archive, plan, rewrites).tobytes() == want
    assert sorted(tiles) == sorted([256, 256, 88] * 2 * -(-plan.host_n // width))


def test_piecewise_despread_refuses_a_host_of_another_length(small_host_bundle):
    archive, _, _ = small_host_bundle
    plan = _plan(archive, random_payload(1033, 3))
    host = host_vector(archive, plan.eligible)[None, :]
    for hosts in (host[:, :-1], np.hstack([host, host])):
        with pytest.raises(ValueError, match="host vector length does not match plan"):
            ss_despread_many(hosts, plan)


def test_ss_extract_refuses_a_carrier_of_another_host(small_host_bundle):
    """A carrier whose eligible tensors hold other than the plan's host_n
    params, or that lacks one of them, is refused before any despread."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1034, 3)
    plan = _plan(archive, payload)
    carrier = ss_embed(archive, payload, plan)
    name = plan.eligible[-1]
    t = carrier.tensors[name]
    for rows in (t.data[:-1], np.vstack([t.data, t.data[:1]])):
        with pytest.raises(ValueError, match="host_n"):
            ss_extract(carrier.replace({name: Tensor.adopt(np.ascontiguousarray(rows))}), plan)
    lacking = ModelArchive({n: v for n, v in carrier.tensors.items() if n != name})
    with pytest.raises(ValueError, match="lacks"):
        ss_extract(lacking, plan)


def test_ss_embed_refuses_a_host_of_another_size(small_host_bundle):
    """ss_embed refuses, as ss_extract does, an archive whose eligible
    tensors hold other than the plan's host_n params, or that lacks one of
    them, before it writes a block."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1035, 3)
    plan = _plan(archive, payload)
    name = plan.eligible[-1]
    t = archive.tensors[name]
    for rows in (t.data[:-1], np.vstack([t.data, t.data[:1]])):
        with pytest.raises(ValueError, match="host_n"):
            ss_embed(archive.replace({name: Tensor.adopt(np.ascontiguousarray(rows))}),
                     payload, plan)
    lacking = ModelArchive({n: v for n, v in archive.tensors.items() if n != name})
    with pytest.raises(ValueError, match="lacks"):
        ss_embed(lacking, payload, plan)


@pytest.fixture
def blas_calls():
    """numpy's OpenBLAS (get, set) thread-count calls, or None, with the count
    at two for the test (so a pin to one shows) and its prior value after."""
    calls = sweep._blas_thread_calls()
    if calls is None:
        yield None
        return
    get, set_ = calls
    prior = get()
    set_(2)
    try:
        yield calls
    finally:
        set_(prior)


def test_sweep_holds_blas_at_one_thread_then_restores_it(small_host_bundle, monkeypatch,
                                                         blas_calls):
    if blas_calls is None:
        pytest.skip("numpy's BLAS exports no thread-count calls")
    get, _ = blas_calls
    archive, _, _ = small_host_bundle
    payload = random_payload(1024, 16)
    plan = _plan(archive, payload)
    during = []
    real = stego._chip_words

    def observing(*args):
        during.append(get())
        return real(*args)

    monkeypatch.setattr(stego, "_chip_words", observing)
    monkeypatch.setattr(sweep, "workers", lambda: 2)
    carrier = ss_embed(archive, payload, plan)
    assert get() == 2
    ss_despread_many(host_vector(carrier, plan.eligible), plan)
    assert get() == 2
    assert during and set(during) == {1}


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_sweep_error_reaches_caller_and_restores_blas(small_host_bundle, monkeypatch,
                                                      blas_calls, failing):
    """An error in any block, on a helper thread or on the calling one, is
    raised by the sweep after every helper has stopped, with the BLAS thread
    count back at its prior value."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1025, 16)
    plan = _plan(archive, payload)
    fail_chip_sweeps(monkeypatch, failing == "caller", "chip block at {start} failed", first=1)
    monkeypatch.setattr(sweep, "workers", lambda: 3)
    threads_before = threading.active_count()
    host = host_vector(archive, plan.eligible)
    for run in (lambda: ss_embed(archive, payload, plan),
                lambda: ss_despread_many(np.stack([host, host]), plan)):
        with pytest.raises(ValueError, match="chip block at"):
            run()
        assert threading.active_count() == threads_before
        if blas_calls is not None:
            assert blas_calls[0]() == 2


def test_ss_roundtrip_small_host(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1011, 16)
    plan = _plan(archive, payload)
    carrier = ss_embed(archive, payload, plan)
    got, snr_db = ss_extract(carrier, plan)
    assert got == payload
    assert plan.matches(got)
    assert snr_db > 0


def test_ss_perturbation_magnitude(small_host_bundle):
    """Each host slot accumulates gamma * (sum of K +-1 chips): the deltas sit
    on the gamma lattice with standard deviation ~ gamma * sqrt(K)."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1012, 16)
    gamma = 0.02
    plan = _plan(archive, payload, gamma=gamma)
    carrier = ss_embed(archive, payload, plan)
    names = eligible_names(archive, min_ndim=2)
    delta = (
        host_vector(carrier, names).astype(np.float64)
        - host_vector(archive, names).astype(np.float64)
    )
    k = plan.coded_bits
    assert np.max(np.abs(delta)) <= k * gamma + 1e-6
    steps = delta / gamma
    assert np.max(np.abs(steps - np.round(steps))) < 2e-2  # on the lattice (f32 noise)
    assert abs(delta.std() - gamma * math.sqrt(k)) < 0.25 * gamma * math.sqrt(k)


def test_ss_never_embedded_negative_snr(small_host_bundle):
    archive, _, _ = small_host_bundle
    plan = _plan(archive, random_payload(1013, 16))
    got, snr_db = ss_extract(archive, plan)
    assert got != plan and snr_db < 0


def test_ss_capacity_error(mlp_bundle):
    archive, _, _ = mlp_bundle  # 450 params, none 2-D big enough
    with pytest.raises(CapacityError):
        _plan(archive, random_payload(1014, 16))


def test_ss_capacity_ratio_boundary(small_host_bundle):
    archive, _, _ = small_host_bundle  # 49152 host params
    n = host_size(archive, eligible_names(archive, min_ndim=2))
    max_coded = n // SS_MIN_RATIO  # 768
    ok_bytes = max_coded // 3 // 8  # exactly at the ratio with repetition:3
    _plan(archive, random_payload(1, ok_bytes))
    with pytest.raises(CapacityError):
        _plan(archive, random_payload(1, ok_bytes + 1))


def test_ss_embed_rejects_other_payload(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1015, 16)
    plan = _plan(archive, payload)
    with pytest.raises(ValueError, match="digest"):
        ss_embed(archive, random_payload(1016, 16), plan)


def test_ss_noise_floor_matches_theory(small_host_bundle):
    """Correlations of a clean host against the chips have the predicted
    variance (1 + gamma^2 (K-1)) / N with gamma = 0 here, i.e. sigma^2 = 1/N."""
    archive, _, _ = small_host_bundle
    plan = _plan(archive, random_payload(1017, 24))
    names = plan.eligible
    host = host_vector(archive, names)[None, :]
    y = ss_despread_many(host, plan)[0]
    sigma2 = float(np.var(y))
    want = 1.0 / plan.host_n
    assert 0.8 * want < sigma2 < 1.2 * want


def test_ss_despread_many_matches_single(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1018, 16)
    plan = _plan(archive, payload)
    carrier = ss_embed(archive, payload, plan)
    names = plan.eligible
    hosts = np.stack([host_vector(carrier, names), host_vector(archive, names)])
    ys = ss_despread_many(hosts, plan)
    got0, snr0 = decode_correlations(ys[0], plan)
    got1, snr1 = decode_correlations(ys[1], plan)
    assert got0 == payload and snr0 > 0
    assert got1 != payload and snr1 < 0
    # single-archive path must agree exactly
    direct, snr_direct = ss_extract(carrier, plan)
    assert direct == got0 and snr_direct == pytest.approx(snr0)


def test_chip_plan_dict_roundtrip(small_host_bundle):
    archive, _, _ = small_host_bundle
    payload = random_payload(1019, 16)
    ecc = parse_ecc("repetition:3")
    plans = {
        "ss": _plan(archive, payload),
        "lsb": _lsb_plan(archive, payload, 3, seed=40, ecc=ecc),
        "sign": _sign_plan(archive, payload, seed=40, ecc=ecc),
    }
    for method, plan in plans.items():
        assert plan.method == method
        back = AttackPlan.from_dict(plan.to_dict())
        assert back == plan
        assert back.ecc == plan.ecc == ecc
        assert back.matches(payload) and not back.matches(payload[::-1])
    assert plans["ss"].to_dict() == {
        "method": "ss", "seed": 40, "ecc": "repetition:3",
        "payload_sha256": hashlib.sha256(payload).hexdigest(), "payload_len": 16,
        "gamma": 0.02, "eligible": list(plans["ss"].eligible), "host_n": plans["ss"].host_n,
    }


def test_snr_guard_on_constant_correlations():
    plan_like = AttackPlan(
        "ss", seed=1, ecc="none", payload_sha256="0" * 64, payload_len=1,
        gamma=0.5, eligible=("w",), host_n=4096,
    )
    y = np.full(8, 0.25)
    _, snr_db = decode_correlations(y, plan_like)
    assert math.isinf(snr_db) and snr_db > 0


@given(st.integers(1, 28), st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_ss_roundtrip_property(small_host_bundle, nbytes, seed):
    archive, _, _ = small_host_bundle
    payload = random_payload(seed, nbytes)
    plan = _plan(archive, payload, seed=seed)
    carrier = ss_embed(archive, payload, plan)
    got, _ = ss_extract(carrier, plan)
    assert got == payload
