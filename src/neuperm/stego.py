"""Weight-steganography attack lab.

Three embedders hide a byte payload inside a model archive so the
disruption passes have something concrete to break:

* ``lsb``  — packs payload bits into the low mantissa bits of selected
  parameters (exponent untouched, so values barely move),
* ``sign`` — stores one bit per selected parameter in its sign,
* ``ss``   — additive spread spectrum: each coded bit rides a pseudorandom
  +/-1 chip sequence across the whole host at small amplitude gamma.

``lsb:k`` and ``sign`` are two fields of the same raw word: the low k bits,
or the top bit (bit 31 of a float32, bit 15 of a float16). One core writes
and reads a field at sampled positions for both, so NaN, -0.0 and inf
carry payload bits like any other value.

Payloads are arbitrary caller-supplied bytes; this module only moves bits
around. Extraction is the exact mirror of embedding: same seed, same
position/chip derivation, so any parameter displacement between the two
shows up as bit errors.

Embedders and extractors use only an archive's ``layout``, ``read`` and
``map``: an embedder returns ``archive.map`` of a rewrite of each tensor, so
over an ``ArchiveReader`` the carrier is made as it is written, in row
blocks read from the file; ``extract_many`` reads each tensor once and
takes what it needs from the row blocks of each rewrite of it.

The spread-spectrum chip sweeps, ``ss_embed`` (one per row block) and
the despread (``ss_despread_many`` over stacked hosts, ``ss_correlations``
over the rewrites of a carrier, one sweep per tensor read), run their
column blocks through ``sweep.run_ordered``: one thread per CPU in the
affinity mask, each taking the next block as it goes, OpenBLAS held at one
thread, block results added in column order. Every block computes the
same thing as a single-thread sweep would, so carriers and correlations
are byte for byte the same on any CPU count and any tensor sizes. Each
thread holds one block at a time: in the embed a quarter of _SS_BLOCK_BYTES
in bits; in the despread the block's chip words and one row tile of about
1 MiB of float32 chips (_tile_rows). At most two block results per thread
are taken and not yet added.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .archive import StoredTensor, _checked
from .engine import row_blocks
from .errors import CapacityError, quote, split_spec
from .rng import SeededRng, derive_seed, words_at
from .sweep import run_ordered
from .tensor import Tensor

# ---------------------------------------------------------------- bits

def bytes_to_bits(data: bytes) -> np.ndarray:
    """Byte string -> uint8 bit array, most significant bit first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        raise ValueError("bit count must be a multiple of 8")
    return np.packbits(bits).tobytes()


# ---------------------------------------------------------------- ecc

#: ecc name -> (type of r, default r), as errors.split_spec reads them
_ECC_KINDS = {"none": (None, 1), "repetition": (int, None), "hamming74": (None, 1)}


@dataclass(frozen=True)
class EccScheme:
    """Error-correcting code wrapper: none, repetition:r, or hamming74.

    ``delta`` is the per-block fraction of coded-bit errors the decoder is
    guaranteed to correct — the quantity the analysis bounds consume.
    """

    name: str
    r: int = 1

    def __post_init__(self):
        if self.name not in _ECC_KINDS:
            raise ValueError(f"unknown ecc scheme {self.name!r}")
        if self.name == "repetition":
            if self.r < 1 or self.r % 2 == 0:
                raise ValueError("repetition factor must be odd and >= 1")
        elif self.r != 1:
            raise ValueError(f"{self.name} takes no repetition factor")

    @property
    def spec(self) -> str:
        return f"repetition:{self.r}" if self.name == "repetition" else self.name

    @property
    def delta(self) -> float:
        if self.name == "repetition":
            return (self.r // 2) / self.r
        if self.name == "hamming74":
            return 1.0 / 7.0
        return 0.0

    def coded_len(self, n_bits: int) -> int:
        if self.name == "repetition":
            return n_bits * self.r
        if self.name == "hamming74":
            return -(-n_bits // 4) * 7
        return n_bits

    def encode(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if self.name == "none":
            return bits.copy()
        if self.name == "repetition":
            return np.repeat(bits, self.r)
        pad = (-bits.size) % 4
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        d = bits.reshape(-1, 4)
        p0 = d[:, 0] ^ d[:, 1] ^ d[:, 2]
        p1 = d[:, 1] ^ d[:, 2] ^ d[:, 3]
        p2 = d[:, 0] ^ d[:, 1] ^ d[:, 3]
        return np.column_stack([d, p0, p1, p2]).reshape(-1).astype(np.uint8)

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = np.asarray(coded, dtype=np.uint8)
        if self.name == "none":
            return coded.copy()
        if self.name == "repetition":
            if coded.size % self.r:
                raise ValueError("coded length not a repetition multiple")
            votes = coded.reshape(-1, self.r).sum(axis=1)
            return (votes > self.r // 2).astype(np.uint8)
        if coded.size % 7:
            raise ValueError("coded length not a multiple of 7")
        blocks = coded.reshape(-1, 7).copy()
        d = blocks[:, :4]
        s0 = blocks[:, 4] ^ d[:, 0] ^ d[:, 1] ^ d[:, 2]
        s1 = blocks[:, 5] ^ d[:, 1] ^ d[:, 2] ^ d[:, 3]
        s2 = blocks[:, 6] ^ d[:, 0] ^ d[:, 1] ^ d[:, 3]
        syndrome = (s0 << 2) | (s1 << 1) | s2
        # syndrome value -> flipped position (data bits only matter)
        flip_pos = {0b101: 0, 0b111: 1, 0b110: 2, 0b011: 3}
        for syn, pos in flip_pos.items():
            hit = syndrome == syn
            d[hit, pos] ^= 1
        return d.reshape(-1).astype(np.uint8)


def parse_ecc(spec: str) -> EccScheme:
    return EccScheme(*split_spec(spec.lower(), _ECC_KINDS, "ecc spec"))


# ------------------------------------------------------- host indexing

def eligible_names(archive, min_ndim: int = 1) -> tuple[str, ...]:
    """Names of tensors an embedder may write to, in sorted order."""
    return tuple(sorted(n for n, spec in archive.layout.items() if len(spec.shape) >= min_ndim))


def host_size(archive, names) -> int:
    layout = archive.layout
    return sum(layout[n].size for n in names)


def host_vector(archive, names) -> np.ndarray:
    """Flattened float32 values of the tensors ``names``, concatenated in
    order, read one tensor at a time."""
    layout = archive.layout
    out = np.empty(host_size(archive, names), dtype=np.float32)
    at = 0
    for n in names:
        size = layout[n].size
        out[at : at + size] = archive.read(n).data.ravel()  # let go before the next read
        at += size
    return out


def sample_positions(total: int, count: int, seed: int) -> np.ndarray:
    """`count` distinct positions in [0, total), uniform, in draw order.

    Partial Fisher-Yates over a virtual identity array. Step i swaps slot i
    with slot j_i = i + offset_i, the offsets (moduli total, total-1, ...)
    coming from one `bounded_block` call, and takes the value slot j_i
    holds. That is j_i itself unless an earlier step swapped into j_i; then
    it is the value the last such step p found in its own slot p, which is
    found the same way. A stable sort of the j_i gives each step both links,
    the last earlier step into its target and into its own slot, and
    pointer jumping follows the chains: no per-step Python loop and no
    array of size `total`.
    """
    if count > total:
        raise CapacityError(f"need {quote(count)} positions but host has only {quote(total)}")
    rng = SeededRng(seed)
    offsets = rng.bounded_block(np.arange(total, total - count, -1, dtype=np.int64))
    steps = np.arange(count, dtype=np.int64)
    j = offsets.astype(np.int64) + steps
    order = np.argsort(j, kind="stable")
    sorted_j = j[order]
    # prev[i]: the last step before i that swapped into slot j_i, or -1
    prev = np.full(count, -1, dtype=np.int64)
    same = sorted_j[1:] == sorted_j[:-1]
    prev[order[1:][same]] = order[:-1][same]
    # link[p]: the last step at or before p that swapped into slot p, or p
    # itself. Step p itself only when j_p = p, and then no later step swaps
    # into slot p, so no chain reads link[p]
    at = np.searchsorted(sorted_j, steps, side="right") - 1
    link = np.where((at >= 0) & (sorted_j[at] == steps), order[at], steps)
    while True:  # pointer jumping: link[p] becomes the first step of p's chain
        nxt = link[link]
        if np.array_equal(nxt, link):
            break
        link = nxt
    return np.where(prev >= 0, link[prev], j)


# ---------------------------------------------------------- bit fields

#: low mantissa bits an lsb attack may overwrite per parameter
LSB_BITS = range(1, 9)


@functools.lru_cache(maxsize=8)
def _slot_groups(names: tuple, sizes: tuple, count: int, seed: int) -> tuple:
    """The `count` parameters a bit attack writes in a host of `names`
    holding `sizes` params: read-only (name, local_offsets, slot_idx)
    groups, one per tensor written, in name order, each in ascending offset.

    Disruptors never change tensor shapes, so every variant of a carrier
    has the same groups; embed and extract share them through here, and
    `sample_positions` runs once per (total, count, seed).
    """
    positions = sample_positions(sum(sizes), count, seed)
    slot_idx = np.argsort(positions)  # the slots in host order
    positions = positions[slot_idx]
    slot_idx.setflags(write=False)
    groups, lo, start = [], 0, 0
    for name, size in zip(names, sizes):
        hi = np.searchsorted(positions, start + size)
        if lo < hi:
            local = positions[lo:hi] - start
            local.setflags(write=False)
            groups.append((name, local, slot_idx[lo:hi]))
        lo, start = hi, start + size
    return tuple(groups)


def _bit_slots(archive, plan: AttackPlan) -> tuple:
    """`_slot_groups` of a bit plan's ceil(coded_bits / width) slots in the
    archive's eligible tensors. A count beyond the host raises CapacityError
    here, before a caller allocates anything for its slots."""
    width, _ = _bit_field(plan)
    names = eligible_names(archive)
    layout = archive.layout
    return _slot_groups(names, tuple(layout[n].size for n in names),
                        -(-plan.coded_bits // width),
                        derive_seed(plan.seed, f"{plan.method}/positions"))


def _raw_field(data: np.ndarray, width: int, top: bool):
    """Flat raw-word view of `data`, plus the shift and mask of its `width`-bit
    field: the low bits, or the top ones (the sign bit when width is 1)."""
    raw = data.view(f"u{data.itemsize}").ravel()
    shift = raw.itemsize * 8 - width if top else 0
    return raw, shift, raw.dtype.type(((1 << width) - 1) << shift)


def _refuse_other(plan: AttackPlan, method: str) -> None:
    if plan.method != method:
        raise ValueError(f"the {method} attack cannot read a {quote(plan.method)} plan")


def _bit_field(plan: AttackPlan) -> tuple[int, bool]:
    """Width of the raw-word field a bit plan writes, and whether it is the
    top of the word: the low bits_per_param bits (lsb) or the sign bit."""
    return (plan.bits_per_param, False) if plan.method == "lsb" else (1, True)


def _slots_in(blocks, local: np.ndarray) -> Iterator[tuple]:
    """Each of a tensor's row `blocks`, with the slice of its slots (at the
    ascending flat offsets `local`) that falls in it, and their offsets in it."""
    at = 0  # flat offset of the block's first element
    for block in blocks:
        lo, hi = np.searchsorted(local, (at, at + block.size))
        yield block, slice(lo, hi), local[lo:hi] - at
        at += block.size


def _embed_bits(archive, payload: bytes, plan: AttackPlan, method: str):
    """``archive.map`` of a rewrite that writes the coded payload, `width`
    bits per slot, into one field of each slot's raw word, copying each row
    block (``engine.row_blocks``) that holds slots."""
    _refuse_other(plan, method)
    width, top = _bit_field(plan)
    if not plan.matches(payload):
        raise ValueError("payload does not match plan digest")
    slots = -(-plan.coded_bits // width)
    groups = {name: (local, slot_idx) for name, local, slot_idx in _bit_slots(archive, plan)}
    padded = np.zeros(slots * width, dtype=np.uint8)
    padded[: plan.coded_bits] = plan.ecc.encode(bytes_to_bits(payload))
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.uint32)
    values = (padded.reshape(slots, width).astype(np.uint32) * weights).sum(axis=1)

    def rewrite(name: str, t: Tensor | StoredTensor) -> Iterator[np.ndarray]:
        local, slot_idx = groups.get(name, (np.empty(0, np.int64),) * 2)
        for block, held, here in _slots_in(row_blocks(t), local):
            if here.size:
                block = block.copy()
                raw, shift, mask = _raw_field(block, width, top)
                written = values[slot_idx[held]].astype(raw.dtype) << shift
                raw[here] = (raw[here] & ~mask) | written
            yield block

    return archive.map(rewrite)


# ------------------------------------------------------------ lsb, sign

def lsb_embed(archive, payload: bytes, plan: AttackPlan):
    """Hide payload bits in the low mantissa bits of sampled parameters."""
    return _embed_bits(archive, payload, plan, "lsb")


def lsb_extract(archive, plan: AttackPlan) -> bytes:
    """Mirror of lsb_embed: the plan's payload_len bytes."""
    return _extract(archive, plan, "lsb")[0]


def sign_embed(archive, payload: bytes, plan: AttackPlan):
    """Store one coded bit per sampled parameter: bit 1 -> negative sign."""
    return _embed_bits(archive, payload, plan, "sign")


def sign_extract(archive, plan: AttackPlan) -> bytes:
    return _extract(archive, plan, "sign")[0]


# --------------------------------------------------------------- plans

def _is_ecc(value) -> bool:
    try:
        return isinstance(value, EccScheme) or isinstance(value, str) and bool(parse_ecc(value))
    except ValueError:
        return False


#: plan field -> (test its value must pass, what the test asks for)
_PLAN_FIELDS = {
    "seed": (lambda v: isinstance(v, int), "an integer"),
    "ecc": (_is_ecc, "an ecc spec (none, repetition:r or hamming74)"),
    "payload_sha256": (lambda v: isinstance(v, str) and bool(re.fullmatch(r"[0-9a-f]{64}", v)),
                       "a sha256 hex digest"),
    "payload_len": (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
    "bits_per_param": (lambda v: isinstance(v, int) and v in LSB_BITS, "an integer in 1..8"),
    "gamma": (lambda v: isinstance(v, (int, float)) and 0 < v <= sys.float_info.max,
              "a finite number > 0"),
    "eligible": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(n, str) for n in v),
                 "a list of tensor names"),
    "host_n": (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
}

#: attack method -> the fields its plans hold, in the order they are checked
_PLAN_KEYS = {
    "lsb": ("seed", "ecc", "payload_sha256", "payload_len", "bits_per_param"),
    "sign": ("seed", "ecc", "payload_sha256", "payload_len"),
    "ss": ("seed", "ecc", "payload_sha256", "payload_len", "gamma", "eligible", "host_n"),
}

#: attack method -> (parameter type, default), as errors.split_spec reads them
ATTACK_KINDS = {"lsb": (int, 1), "sign": (None, None), "ss": (float, None)}


@dataclass(frozen=True)
class AttackPlan:
    """Everything an extractor needs to find a payload in a carrier.

    Every method records its seed, ecc and the payload's length and digest,
    never the payload itself. ``lsb`` adds ``bits_per_param``; ``ss`` adds
    ``gamma`` and the host it spreads over (``eligible`` tensors holding
    ``host_n`` params). A plan checks its method's fields when it is built,
    so a plan built in code meets the same rules as one read from JSON; its
    JSON form is the method and those fields, at one level.
    """

    method: str
    seed: int | None = None
    ecc: EccScheme | None = None  # a spec string is parsed into its scheme
    payload_sha256: str | None = None
    payload_len: int | None = None
    bits_per_param: int | None = None
    gamma: float | None = None
    eligible: tuple[str, ...] = ()
    host_n: int | None = None

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in _PLAN_KEYS:
            raise ValueError(
                f"plan method {quote(self.method)} is not one of {', '.join(_PLAN_KEYS)}")
        for key in _PLAN_KEYS[self.method]:
            ok, want = _PLAN_FIELDS[key]
            value = getattr(self, key)
            if isinstance(value, bool) or not ok(value):
                raise ValueError(f"plan field {key!r} must be {want}, got {quote(value)}")
        if isinstance(self.ecc, str):
            object.__setattr__(self, "ecc", parse_ecc(self.ecc))
        object.__setattr__(self, "eligible", tuple(self.eligible))

    @classmethod
    def for_payload(cls, method: str, payload: bytes, archive, *, seed: int,
                    ecc: EccScheme, param=None) -> "AttackPlan":
        """The plan for hiding `payload` in `archive` by `method`; `param` is
        lsb's bits_per_param or ss's gamma. An ss plan spreads over every
        tensor of two or more dims. A host with too few params for the coded
        bits raises CapacityError before any bit is coded."""
        fields = {}
        if method == "lsb":
            fields["bits_per_param"] = param
        elif method == "ss":
            names = eligible_names(archive, min_ndim=2)
            fields.update(gamma=param, eligible=names, host_n=host_size(archive, names))
        plan = cls(method, seed, ecc, hashlib.sha256(payload).hexdigest(), len(payload),
                   **fields)
        if method == "ss":
            plan.check_host(archive)
        else:  # the slots are drawn, and cached for the embed, or refused here
            _bit_slots(archive, plan)
        return plan

    @property
    def payload_bits(self) -> int:
        return self.payload_len * 8

    @property
    def coded_bits(self) -> int:
        return self.ecc.coded_len(self.payload_bits)

    def matches(self, payload: bytes) -> bool:
        return hashlib.sha256(payload).hexdigest() == self.payload_sha256

    def check_host(self, archive) -> dict[str, int]:
        """Each eligible tensor's offset in this ss plan's host. Raise unless
        `archive` holds the host (ValueError) and the host has SS_MIN_RATIO
        params per coded bit (CapacityError)."""
        missing = [n for n in self.eligible if n not in archive.layout]
        if missing:
            raise ValueError(f"ss plan names tensors the carrier lacks: {quote(missing)}")
        offsets, held = {}, 0
        for n in self.eligible:
            offsets[n], held = held, held + archive.layout[n].size
        if held != self.host_n:
            raise ValueError(f"ss plan host_n is {quote(self.host_n)} but its eligible tensors "
                             f"hold {held} params in the carrier")
        if self.host_n < SS_MIN_RATIO * self.coded_bits:
            raise CapacityError(f"host has {self.host_n} params; {quote(self.coded_bits)} coded "
                                f"bits need at least {quote(SS_MIN_RATIO * self.coded_bits)}")
        return offsets

    def to_dict(self) -> dict:
        doc = {key: getattr(self, key) for key in ("method", *_PLAN_KEYS[self.method])}
        doc["ecc"] = self.ecc.spec
        if self.method == "ss":
            doc["eligible"] = list(self.eligible)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "AttackPlan":
        """Plan from its JSON form; the plan checks the fields it is given,
        so a missing or malformed one raises ValueError naming it."""
        if not isinstance(doc, dict):
            raise ValueError("plan must be a JSON object")
        method = doc.get("method")
        keys = _PLAN_KEYS.get(method, ()) if isinstance(method, str) else ()
        return cls(method, **{key: doc.get(key) for key in keys})


# ------------------------------------------------------ spread spectrum

#: min host params per coded bit; below this the chips no longer average out
SS_MIN_RATIO = 64

#: bytes of float32 chips a block of all coded bits would hold; sets the
#: column grid of both sweeps only (_chunk_cols)
_SS_BLOCK_BYTES = 6 << 20

#: byte value -> its 8 chips as +/-1, little-endian bit order
_CHIP_LUT = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    .astype(np.float32) * 2.0 - 1.0
)


def _chip_words(plan: AttackPlan, start: int, stop: int, n_bits: int) -> np.ndarray:
    """Chip words for host positions [start, stop) and all coded bits:
    (n_bits, words) uint64, the first word holding chips 64*(start//64) on.

    Chip k occupies the k-th run of ceil(host_n/64) words in one counter
    stream, 64 chips per word, little-endian bit order within each word
    (bit 1 is chip +1). All rows are pulled in a single random-access call.
    """
    words_per_bit = -(-plan.host_n // 64)
    chip_seed = derive_seed(plan.seed, "ss/chips")
    w0, w1 = start // 64, -(-stop // 64)
    rows = np.arange(n_bits, dtype=np.uint64)[:, None] * np.uint64(words_per_bit)
    cols = np.arange(w0, w1, dtype=np.uint64)[None, :]
    return words_at(chip_seed, rows + cols)


def _spread_block(plan: AttackPlan, start: int, stop: int, coded: np.ndarray) -> np.ndarray:
    """``b @ C`` with b = +/-1 from the coded bits and C the +/-1 chips of
    [start, stop) for all of them, counted from the chip bits alone.

    Both factors are +/-1, so column j is the integer 2*agree_j - n_bits,
    where agree_j counts the coded bits equal to chip bit j, and no partial
    sum exceeds n_bits. A float32 product is therefore exact in any
    summation order while n_bits < 2^24, which SS_MIN_RATIO puts beyond any
    host under 2^30 params, and this count gives the same float32 bytes.
    Rows of a 0 bit are inverted so that a set bit marks agreement; the
    thread holds n_bits x width bytes of bits, not float32 chips.
    """
    n_bits = coded.size
    words = _chip_words(plan, start, stop, n_bits)
    words ^= np.where(coded == 1, np.uint64(0), ~np.uint64(0))[:, None]
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    agree = np.add.reduce(bits, axis=0, dtype=np.uint16 if n_bits < 1 << 16 else np.uint32)
    return agree[start % 64 : start % 64 + stop - start].astype(np.float32) * 2 - n_bits


def _chunk_cols(n_bits: int) -> int:
    """Host positions per (de)spreading block, the column grid: a multiple
    of 64, so blocks start on a chip word, sized so that float32 chips for
    all n_bits would fill about _SS_BLOCK_BYTES."""
    return max(64, _SS_BLOCK_BYTES // (4 * n_bits) // 64 * 64)


def _tile_rows(width: int) -> int:
    """Coded bits per despread row tile of a block `width` columns wide: a
    multiple of 256, sized to about 1 MiB of float32 chips."""
    return max(256, (1 << 20) // (4 * width) // 256 * 256)


def ss_embed(archive, payload: bytes, plan: AttackPlan):
    """w' = w + gamma * sum_k b_k c_k with b_k = +/-1 from the coded bits,
    added to each row block (``engine.row_blocks``) of a host tensor, in
    pieces of its host range cut at multiples of _chunk_cols. Each element
    gets the same float32 sum at any cuts."""
    _refuse_other(plan, "ss")
    if not plan.matches(payload):
        raise ValueError("payload does not match plan digest")
    offsets = plan.check_host(archive)
    coded = plan.ecc.encode(bytes_to_bits(payload))
    width = _chunk_cols(coded.size)

    def rewrite(name: str, t: Tensor | StoredTensor) -> Iterator[np.ndarray]:
        stop = offsets.get(name)  # host position after the last block
        for block in row_blocks(t):
            if stop is None:
                yield block
                continue
            out = block.astype(np.float32).ravel()  # a fresh array, so it is added to in place
            start, stop = stop, stop + out.size

            def spread(s: int) -> np.ndarray:
                return _spread_block(plan, s, min(s - s % width + width, stop), coded)

            def add(s: int, chips: np.ndarray) -> None:
                out[s - start : s - start + chips.size] += plan.gamma * chips

            run_ordered(spread, add, [start, *range(start - start % width + width, stop, width)])
            yield out.astype(t.dtype, copy=False).reshape(block.shape)

    return archive.map(rewrite)


def _despread_into(y: np.ndarray, plan: AttackPlan, stack: np.ndarray, at: int) -> None:
    """Add to `y` the chip products of `stack`, whose columns are host
    positions at, at+1, ... with `at` on a block boundary, in blocks of
    _chunk_cols (the last may be short), one sweep, in column order. A
    block's chips are expanded _tile_rows coded bits at a time, into one
    buffer reused for each such row tile."""
    k = plan.coded_bits
    width = _chunk_cols(k)
    rows = _tile_rows(width)

    def correlate(s: int) -> np.ndarray:
        block = stack[:, s - at : s - at + width]
        words = _chip_words(plan, s, s + block.shape[1], k).view(np.uint8)
        tile = np.empty((min(k, rows), words.shape[1], 8), np.float32)
        out = np.empty((k, len(block)), np.float32)
        for r in range(0, k, rows):
            chips = tile[: min(rows, k - r)]
            # uint8 indices cannot leave the 256-row table, so "clip" reads what
            # "raise" would, without the copy of `out` numpy makes under "raise"
            np.take(_CHIP_LUT, words[r : r + rows], axis=0, out=chips, mode="clip")
            out[r : r + rows] = chips.reshape(len(chips), -1)[:, : block.shape[1]] @ block.T
        return out

    run_ordered(correlate, lambda _, r: np.add(y, r.T, out=y),
                range(at, at + stack.shape[1], width))


def ss_despread_many(hosts: np.ndarray, plan: AttackPlan) -> np.ndarray:
    """Correlations y[v, k] = <host_v, c_k> / N for a stack of host vectors.

    The chip matrix is regenerated chunk by chunk and shared by all rows.
    """
    hosts = np.atleast_2d(np.asarray(hosts, dtype=np.float32))
    if hosts.shape[1] != plan.host_n:
        raise ValueError("host vector length does not match plan")
    y = np.zeros((hosts.shape[0], plan.coded_bits))
    _despread_into(y, plan, hosts, 0)
    return y / plan.host_n


def decode_correlations(y: np.ndarray, plan: AttackPlan) -> tuple[bytes, float]:
    """The payload the correlations `y` decode to, and its despread SNR in dB:
    signal mean squared over noise variance of the re-aligned correlations."""
    coded_hat = (y > 0).astype(np.uint8)
    decoded = plan.ecc.decode(coded_hat)[: plan.payload_bits]
    payload = bits_to_bytes(decoded)
    # re-encode the decoded bits: aligned correlations should all be positive
    realigned = plan.ecc.encode(decoded).astype(np.float64) * 2.0 - 1.0
    s = realigned * y
    mean = float(s.mean())
    var = float(s.var())
    if var <= 0.0:
        snr = float("inf") if mean != 0.0 else float("-inf")
    else:
        snr = 10.0 * float(np.log10(mean * mean / var)) if mean != 0.0 else float("-inf")
    return payload, snr


def ss_correlations(archive, plan: AttackPlan, rewrites) -> np.ndarray:
    """``ss_despread_many`` of the hosts of `rewrites` (see ``engine.Rewrite``)
    of `archive`, byte for byte, tensor-major: each eligible tensor is read
    once and each rewrite's row blocks of it written into that rewrite's row
    of one float32 buffer, after the columns the last tensor left over. The
    buffer's whole blocks, those of the whole-host sweep, run in one sweep;
    the columns left, fewer than a block, move to the front, and after the
    last tensor they are the host's short last block."""
    plan.check_host(archive)
    layout, n = archive.layout, plan.host_n
    width = _chunk_cols(plan.coded_bits)
    y = np.zeros((len(rewrites), plan.coded_bits))
    buffer = np.empty((len(rewrites), width - 1 + max(layout[m].size for m in plan.eligible)),
                      np.float32)
    at = left = 0  # host position of the buffer's first column; columns held there
    for name in plan.eligible:
        t = archive.read(name)
        for row, rewrite in zip(buffer, rewrites):
            col = left
            for block in rewrite(name, t):
                row[col : col + block.size] = block.ravel()
                col += block.size
        del t  # the tensor goes before the next is read
        end = left + layout[name].size
        whole = end if at + end == n else end - end % width
        _despread_into(y, plan, buffer[:, :whole], at)
        buffer[:, : end - whole] = buffer[:, whole:end]
        at, left = at + whole, end - whole
    return y / n


#: bytes one group of `extract_many` rewrites may hold: for ss a float32 row
#: of the largest host tensor each, for lsb and sign a byte per coded bit
_GROUP_BYTES = 256 << 20


def extract_many(archive, plan: AttackPlan, rewrites) -> list[tuple[bytes, float | None]]:
    """The payload `plan` reads from each of `rewrites` (see ``engine.Rewrite``)
    of `archive`, and its SNR in dB (ss) or None. Each group of rewrites
    reads each tensor extraction needs once and makes each rewrite of it in
    turn; a group's rewrites are pulled from `rewrites` when it runs."""
    if plan.method == "ss":
        plan.check_host(archive)
        per_rewrite = 4 * max(archive.layout[n].size for n in plan.eligible)
    else:
        width, top = _bit_field(plan)
        groups, per_rewrite = _bit_slots(archive, plan), plan.coded_bits
    rewrites, out = iter(rewrites), []
    while made := list(itertools.islice(rewrites, max(1, _GROUP_BYTES // per_rewrite))):
        if plan.method == "ss":
            out += [decode_correlations(y, plan) for y in ss_correlations(archive, plan, made)]
            continue
        values = np.zeros((len(made), -(-plan.coded_bits // width)), np.uint8)
        for name, local, slot_idx in groups:
            t, spec = archive.read(name), archive.layout[name]
            for row, rewrite in zip(values, made):
                for block, held, here in _slots_in(_checked(name, rewrite(name, t), spec), local):
                    raw, shift, mask = _raw_field(block, width, top)
                    row[slot_idx[held]] = (raw[here] & mask) >> shift  # at most 8 bits
                del block, raw  # it may be a whole tensor: it goes before the next is made
            del t  # the tensor goes before the next is read
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint8)
        out += [(bits_to_bytes(plan.ecc.decode(((row[:, None] >> shifts) & 1).reshape(-1)
                                               [: plan.coded_bits])[: plan.payload_bits]), None)
                for row in values]
    return out


def _as_is(name: str, t: Tensor) -> tuple[np.ndarray]:
    return (t.data,)  # the rewrite that changes nothing


def _extract(archive, plan: AttackPlan, method: str) -> tuple[bytes, float | None]:
    """The payload a `method` plan reads from `archive`, and its SNR (ss)."""
    _refuse_other(plan, method)
    return extract_many(archive, plan, [_as_is])[0]


def ss_extract(archive, plan: AttackPlan) -> tuple[bytes, float]:
    return _extract(archive, plan, "ss")
