import hashlib
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neuperm.stego as stego
import neuperm.sweep as sweep
from neuperm.archive import ModelArchive, write_archive
from neuperm.errors import CapacityError
from neuperm.rng import SeededRng, derive_seed, words_at
from neuperm.stego import (
    SS_MIN_RATIO,
    AttackPlan,
    _positions,
    _chip_block,
    _chunk_cols,
    _spread_block,
    decode_correlations,
    eligible_names,
    host_size,
    host_vector,
    lsb_embed,
    lsb_extract,
    parse_ecc,
    sample_positions,
    scatter_host,
    sign_embed,
    sign_extract,
    ss_despread_many,
    ss_embed,
    ss_extract,
)
from neuperm.tensor import Tensor, tensor

from conftest import random_payload


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


def test_host_vector_scatter_roundtrip(mlp_bundle):
    archive, _, _ = mlp_bundle
    names = eligible_names(archive)
    vec = host_vector(archive, names)
    assert vec.dtype == np.float32 and vec.size == host_size(archive, names)
    bumped = vec.copy()
    bumped[7] += 1.0
    back = scatter_host(archive, names, bumped)
    assert not back.same_bits(archive)
    restored = scatter_host(archive, names, vec)
    assert restored.same_bits(archive)


def test_scatter_host_keeps_f16_dtype(gqa_bundle):
    archive, _, _ = gqa_bundle
    names = eligible_names(archive)
    back = scatter_host(archive, names, host_vector(archive, names))
    for name in names:
        assert back.tensors[name].dtype == archive.tensors[name].dtype


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
    _positions.cache_clear()
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
    _positions.cache_clear()
    cached = _positions(1000, 10, 3)
    assert not cached.flags.writeable
    assert np.array_equal(cached, sample_positions(1000, 10, 3))


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


@pytest.mark.parametrize("method", ["lsb", "sign"])
def test_bit_attack_refuses_a_plan_it_does_not_match(small_host_bundle, method):
    """Each bit embedder refuses a payload whose digest is not its plan's, as
    ss_embed does, and neither bit attack reads another method's plan."""
    archive, _, _ = small_host_bundle
    payload = random_payload(1041, 16)
    plans = {"lsb": _lsb_plan(archive, payload, 2, seed=8),
             "sign": _sign_plan(archive, payload, seed=8), "ss": _plan(archive, payload)}
    embed, extract = {"lsb": (lsb_embed, lsb_extract), "sign": (sign_embed, sign_extract)}[method]
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
    want = scatter_host(archive, plan.eligible, host + plan.gamma * (b @ chips))

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


def _serial_embed(archive, payload, plan):
    """The single-thread embed loop the threaded sweep must reproduce byte for byte."""
    coded = plan.ecc.encode(np.unpackbits(np.frombuffer(payload, dtype=np.uint8)))
    b = coded.astype(np.float32) * 2.0 - 1.0
    out = host_vector(archive, plan.eligible).copy()
    width = _chunk_cols(coded.size)
    for s in range(0, plan.host_n, width):
        e = min(s + width, plan.host_n)
        out[s:e] += plan.gamma * (b @ _chip_block(plan, s, e, coded.size))
    return scatter_host(archive, plan.eligible, out)


def _serial_despread(hosts, plan):
    """The single-thread despread loop the threaded sweep must reproduce byte for byte."""
    y = np.zeros((hosts.shape[0], plan.coded_bits))
    width = _chunk_cols(plan.coded_bits)
    for s in range(0, plan.host_n, width):
        e = min(s + width, plan.host_n)
        y += hosts[:, s:e] @ _chip_block(plan, s, e, plan.coded_bits).T
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
    assert sorted(produced) == starts
    assert len(helpers) == min(count, len(starts)) - 1
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
    caller = threading.get_ident()
    real = stego._chip_words

    def failing_block(plan, start, stop, n_bits):
        if (threading.get_ident() == caller) == (failing == "caller") and start > 0:
            raise ValueError(f"chip block at {start} failed")
        return real(plan, start, stop, n_bits)

    monkeypatch.setattr(stego, "_chip_words", failing_block)
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
