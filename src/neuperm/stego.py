"""Weight-steganography attack lab.

Three embedders hide a byte payload inside a model archive so the
disruption passes have something concrete to break:

* ``lsb``  — packs payload bits into the low mantissa bits of selected
  parameters (exponent untouched, so values barely move),
* ``sign`` — stores one bit per selected parameter in its sign,
* ``ss``   — additive spread spectrum: each coded bit rides a pseudorandom
  +/-1 chip sequence across the whole host at small amplitude gamma.

Payloads are arbitrary caller-supplied bytes; this module only moves bits
around. Extraction is the exact mirror of embedding: same seed, same
position/chip derivation, so any parameter displacement between the two
shows up as bit errors.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from .archive import ModelArchive
from .errors import CapacityError
from .rng import SeededRng, derive_seed, words_at
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

@dataclass(frozen=True)
class EccScheme:
    """Error-correcting code wrapper: none, repetition:r, or hamming74.

    ``delta`` is the per-block fraction of coded-bit errors the decoder is
    guaranteed to correct — the quantity the analysis bounds consume.
    """

    name: str
    r: int = 1

    def __post_init__(self):
        if self.name not in ("none", "repetition", "hamming74"):
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
    spec = spec.strip().lower()
    if spec == "none":
        return EccScheme("none")
    if spec == "hamming74":
        return EccScheme("hamming74")
    if spec.startswith("repetition:"):
        try:
            r = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad repetition factor in {spec!r}") from None
        return EccScheme("repetition", r)
    raise ValueError(f"unknown ecc spec {spec!r}")


# ------------------------------------------------------- host indexing

def eligible_names(archive: ModelArchive, min_ndim: int = 1) -> tuple[str, ...]:
    """Names of tensors an embedder may write to, in sorted order."""
    return tuple(
        sorted(n for n, t in archive.tensors.items() if t.data.ndim >= min_ndim)
    )


def host_size(archive: ModelArchive, names) -> int:
    return sum(archive.tensors[n].size for n in names)


def host_vector(archive: ModelArchive, names) -> np.ndarray:
    """Flattened float32 view of the eligible tensors, concatenated in order."""
    return np.concatenate([archive.tensors[n].f32().ravel() for n in names])


def scatter_host(archive: ModelArchive, names, vec: np.ndarray) -> ModelArchive:
    """Inverse of host_vector: write the flat values back, keeping dtypes."""
    updates = {}
    at = 0
    for n in names:
        t = archive.tensors[n]
        chunk = vec[at : at + t.size].reshape(t.shape)
        updates[n] = Tensor.adopt(chunk.astype(t.dtype))
        at += t.size
    if at != vec.size:
        raise ValueError("host vector length mismatch")
    return archive.replace(updates)


def sample_positions(total: int, count: int, seed: int) -> np.ndarray:
    """`count` distinct positions in [0, total), uniform, in draw order.

    Partial Fisher-Yates over a virtual identity array; only displaced
    entries are materialised, so sampling stays O(count) in memory. The
    offsets (moduli total, total-1, ...) come from one `bounded_block`
    call; only the swaps run one by one.
    """
    if count > total:
        raise CapacityError(f"need {count} positions but host has only {total}")
    rng = SeededRng(seed)
    offsets = rng.bounded_block(np.arange(total, total - count, -1, dtype=np.int64))
    swaps: dict[int, int] = {}
    out = []
    for i, j in enumerate((offsets.astype(np.int64) + np.arange(count)).tolist()):
        out.append(swaps.get(j, j))
        swaps[j] = swaps.get(i, i)
    return np.asarray(out, dtype=np.int64)


@functools.lru_cache(maxsize=8)
def _positions(total: int, count: int, seed: int) -> np.ndarray:
    """`sample_positions`, drawn once per (total, count, seed) and read-only.

    Disruptors never change tensor shapes, so every variant of a carrier
    reads the same positions; embed and extract share them through here.
    """
    positions = sample_positions(total, count, seed)
    positions.setflags(write=False)
    return positions


def _locate(archive: ModelArchive, names, positions: np.ndarray):
    """Split global host positions into per-tensor (name, local_offsets, slot_idx)."""
    sizes = np.array([archive.tensors[n].size for n in names], dtype=np.int64)
    bounds = np.cumsum(sizes)
    owner = np.searchsorted(bounds, positions, side="right")
    local = positions - (bounds[owner] - sizes[owner])
    groups = []
    for ti, name in enumerate(names):
        mask = owner == ti
        if mask.any():
            groups.append((name, local[mask], np.flatnonzero(mask)))
    return groups


_UINT_FOR = {np.dtype(np.float32): np.uint32, np.dtype(np.float16): np.uint16}


# ---------------------------------------------------------------- lsb

#: low mantissa bits an lsb attack may overwrite per parameter
LSB_BITS = range(1, 9)


def lsb_embed(
    archive: ModelArchive,
    payload: bytes,
    *,
    bits_per_param: int,
    seed: int,
    ecc: EccScheme = EccScheme("none"),
) -> ModelArchive:
    """Hide payload bits in the low mantissa bits of sampled parameters."""
    if bits_per_param not in LSB_BITS:
        raise ValueError("bits_per_param must be in 1..8")
    names = eligible_names(archive)
    total = host_size(archive, names)
    coded = ecc.encode(bytes_to_bits(payload))
    slots = -(-coded.size // bits_per_param)
    positions = _positions(total, slots, derive_seed(seed, "lsb/positions"))
    padded = np.zeros(slots * bits_per_param, dtype=np.uint8)
    padded[: coded.size] = coded
    chunks = padded.reshape(slots, bits_per_param)
    weights = 1 << np.arange(bits_per_param - 1, -1, -1, dtype=np.uint32)
    values = (chunks.astype(np.uint32) * weights).sum(axis=1)

    updates = {}
    for name, local, slot_idx in _locate(archive, names, positions):
        t = archive.tensors[name]
        raw = t.data.copy().view(_UINT_FOR[t.data.dtype]).ravel()
        mask = raw.dtype.type((1 << bits_per_param) - 1)
        raw[local] = (raw[local] & ~mask) | values[slot_idx].astype(raw.dtype)
        updates[name] = Tensor.adopt(raw.view(t.data.dtype).reshape(t.shape))
    return archive.replace(updates)


def lsb_extract(
    archive: ModelArchive,
    payload_len: int,
    *,
    bits_per_param: int,
    seed: int,
    ecc: EccScheme = EccScheme("none"),
) -> bytes:
    """Mirror of lsb_embed; payload_len is the expected byte count."""
    if bits_per_param not in LSB_BITS:
        raise ValueError("bits_per_param must be in 1..8")
    names = eligible_names(archive)
    total = host_size(archive, names)
    coded_len = ecc.coded_len(payload_len * 8)
    slots = -(-coded_len // bits_per_param)
    positions = _positions(total, slots, derive_seed(seed, "lsb/positions"))
    values = np.zeros(slots, dtype=np.uint32)
    for name, local, slot_idx in _locate(archive, names, positions):
        t = archive.tensors[name]
        raw = t.data.view(_UINT_FOR[t.data.dtype]).ravel()
        mask = raw.dtype.type((1 << bits_per_param) - 1)
        values[slot_idx] = (raw[local] & mask).astype(np.uint32)
    shifts = np.arange(bits_per_param - 1, -1, -1, dtype=np.uint32)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    decoded = ecc.decode(bits[:coded_len])
    return bits_to_bytes(decoded[: payload_len * 8])


# --------------------------------------------------------------- sign

def sign_embed(
    archive: ModelArchive,
    payload: bytes,
    *,
    seed: int,
    ecc: EccScheme = EccScheme("none"),
) -> ModelArchive:
    """Store one coded bit per sampled parameter: bit 1 -> negative sign."""
    names = eligible_names(archive)
    total = host_size(archive, names)
    coded = ecc.encode(bytes_to_bits(payload))
    positions = _positions(total, coded.size, derive_seed(seed, "sign/positions"))
    updates = {}
    for name, local, slot_idx in _locate(archive, names, positions):
        t = archive.tensors[name]
        flat = t.data.copy().ravel()
        signs = np.where(coded[slot_idx] == 1, -1.0, 1.0).astype(flat.dtype)
        flat[local] = np.copysign(np.abs(flat[local]), signs)
        updates[name] = Tensor.adopt(flat.reshape(t.shape))
    return archive.replace(updates)


def sign_extract(
    archive: ModelArchive,
    payload_len: int,
    *,
    seed: int,
    ecc: EccScheme = EccScheme("none"),
) -> bytes:
    names = eligible_names(archive)
    total = host_size(archive, names)
    coded_len = ecc.coded_len(payload_len * 8)
    positions = _positions(total, coded_len, derive_seed(seed, "sign/positions"))
    bits = np.zeros(coded_len, dtype=np.uint8)
    for name, local, slot_idx in _locate(archive, names, positions):
        flat = archive.tensors[name].data.ravel()
        bits[slot_idx] = np.signbit(flat[local]).astype(np.uint8)
    decoded = ecc.decode(bits)
    return bits_to_bytes(decoded[: payload_len * 8])


# --------------------------------------------------------------- plans

def _is_ecc_spec(value) -> bool:
    try:
        return isinstance(value, str) and bool(parse_ecc(value))
    except ValueError:
        return False


#: plan field -> (test its JSON value must pass, what the test asks for)
_PLAN_FIELDS = {
    "seed": (lambda v: isinstance(v, int), "an integer"),
    "ecc": (_is_ecc_spec, "an ecc spec (none, repetition:r or hamming74)"),
    "payload_sha256": (lambda v: isinstance(v, str) and bool(re.fullmatch(r"[0-9a-f]{64}", v)),
                       "a sha256 hex digest"),
    "payload_len": (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
    "bits_per_param": (lambda v: isinstance(v, int) and v in LSB_BITS, "an integer in 1..8"),
    "gamma": (lambda v: isinstance(v, (int, float)) and math.isfinite(v) and v > 0,
              "a finite number > 0"),
    "payload_bits": (lambda v: isinstance(v, int) and v > 0 and v % 8 == 0,
                     "a positive multiple of 8"),
    "eligible": (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
                 "a list of tensor names"),
    "host_n": (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
}


def _plan_field(doc: dict, key: str, where: str):
    ok, want = _PLAN_FIELDS[key]
    value = doc.get(key)
    if isinstance(value, bool) or not ok(value):
        raise ValueError(f"{where} field {key!r} must be {want}, got {value!r}")
    return value


@dataclass(frozen=True)
class AttackPlan:
    """Everything an extractor needs to find a payload in a carrier.

    Every method records its seed, ecc and the payload's length and digest,
    never the payload itself. ``lsb`` adds ``bits_per_param``; ``ss`` adds
    ``gamma`` and the host it spreads over (``eligible`` tensors holding
    ``host_n`` params).
    """

    method: str
    seed: int
    ecc_spec: str
    payload_sha256: str
    payload_len: int
    bits_per_param: int | None = None
    gamma: float | None = None
    eligible: tuple[str, ...] = ()
    host_n: int | None = None

    @classmethod
    def for_payload(cls, method: str, payload: bytes, *, seed: int, ecc: EccScheme,
                    **fields) -> "AttackPlan":
        return cls(method, seed, ecc.spec, hashlib.sha256(payload).hexdigest(),
                   len(payload), **fields)

    @property
    def ecc(self) -> EccScheme:
        return parse_ecc(self.ecc_spec)

    @property
    def payload_bits(self) -> int:
        return self.payload_len * 8

    @property
    def coded_bits(self) -> int:
        return self.ecc.coded_len(self.payload_bits)

    def matches(self, payload: bytes) -> bool:
        return hashlib.sha256(payload).hexdigest() == self.payload_sha256

    def check_host(self, archive: ModelArchive) -> None:
        """Raise unless `archive` holds this ss plan's host (ValueError) and
        the host has SS_MIN_RATIO params per coded bit (CapacityError)."""
        missing = [n for n in self.eligible if n not in archive.tensors]
        if missing:
            raise ValueError(f"ss plan names tensors the carrier lacks: {missing}")
        held = host_size(archive, self.eligible)
        if held != self.host_n:
            raise ValueError(f"ss plan host_n is {self.host_n} but its eligible tensors "
                             f"hold {held} params in the carrier")
        if self.host_n < SS_MIN_RATIO * self.coded_bits:
            raise CapacityError(f"host has {self.host_n} params; {self.coded_bits} coded bits "
                                f"need at least {SS_MIN_RATIO * self.coded_bits}")

    def to_dict(self) -> dict:
        common = {"seed": self.seed, "ecc": self.ecc_spec, "payload_sha256": self.payload_sha256}
        doc = {"method": self.method, **common, "payload_len": self.payload_len}
        if self.method == "lsb":
            doc["bits_per_param"] = self.bits_per_param
        elif self.method == "ss":
            doc["ss"] = {**common, "gamma": self.gamma, "payload_bits": self.payload_bits,
                         "eligible": list(self.eligible), "host_n": self.host_n}
        return doc

    @classmethod
    def from_dict(cls, doc) -> "AttackPlan":
        """Plan from its JSON form. A missing or malformed field, or a
        top-level field that disagrees with its copy in an ss plan's ``ss``
        object, raises ValueError naming it."""
        if not isinstance(doc, dict):
            raise ValueError("plan must be a JSON object")
        method = doc.get("method")
        if method not in ("lsb", "sign", "ss"):
            raise ValueError(f"plan method {method!r} is not one of lsb, sign, ss")
        keys = ["seed", "ecc", "payload_sha256"]
        keys += ["payload_len"] if method != "ss" or "payload_len" in doc else []
        keys += ["bits_per_param"] if method == "lsb" else []
        fields = {key: _plan_field(doc, key, "plan") for key in keys}
        if method == "ss":
            ss = doc.get("ss")
            if not isinstance(ss, dict):
                raise ValueError(f"plan field 'ss' must be a JSON object, got {ss!r}")
            inner = {key: _plan_field(ss, key, "ss plan") for key in (
                "seed", "ecc", "payload_sha256", "payload_bits", "gamma", "eligible", "host_n")}
            inner.update(payload_len=inner.pop("payload_bits") // 8, gamma=float(inner["gamma"]),
                         eligible=tuple(inner["eligible"]))
            for key, value in fields.items():
                if value != inner[key]:
                    raise ValueError(
                        f"plan field {key!r} is {value!r} but the ss plan says {inner[key]!r}")
            fields = inner
        fields["ecc_spec"] = fields.pop("ecc")
        return cls(method, **fields)


# ------------------------------------------------------ spread spectrum

#: min host params per coded bit; below this the chips no longer average out
SS_MIN_RATIO = 64

#: bytes of float32 chips per (de)spreading block: small enough to stay in
#: cache and be reused by the allocator instead of page-faulted afresh
_SS_BLOCK_BYTES = 6 << 20

#: byte value -> its 8 chips as +/-1, little-endian bit order
_CHIP_LUT = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    .astype(np.float32) * 2.0 - 1.0
)


@dataclass(frozen=True)
class SnrReading:
    """Despread quality: signal mean/noise var over re-aligned correlations."""

    snr_db: float
    signal_mean: float
    noise_var: float
    coded_bits: int


def make_chip_plan(
    archive: ModelArchive,
    payload: bytes,
    *,
    gamma: float,
    seed: int,
    ecc: EccScheme = EccScheme("none"),
) -> AttackPlan:
    names = eligible_names(archive, min_ndim=2)
    plan = AttackPlan.for_payload("ss", payload, seed=seed, ecc=ecc, gamma=gamma,
                                  eligible=names, host_n=host_size(archive, names))
    # read back as evaluate will, so attack never writes a plan evaluate refuses
    plan = AttackPlan.from_dict(plan.to_dict())
    plan.check_host(archive)
    return plan


def _chip_block(plan: AttackPlan, start: int, stop: int, n_bits: int) -> np.ndarray:
    """Chips for host positions [start, stop) and all coded bits: (n_bits, width).

    Chip k occupies the k-th run of ceil(host_n/64) words in one counter
    stream, 64 chips per word, little-endian bit order within each word.
    All rows are pulled in a single random-access call, and each byte of a
    word becomes its 8 chips through one lookup in _CHIP_LUT.
    """
    words_per_bit = -(-plan.host_n // 64)
    chip_seed = derive_seed(plan.seed, "ss/chips")
    w0, w1 = start // 64, -(-stop // 64)
    rows = np.arange(n_bits, dtype=np.uint64)[:, None] * np.uint64(words_per_bit)
    cols = np.arange(w0, w1, dtype=np.uint64)[None, :]
    words = words_at(chip_seed, rows + cols)
    chips = np.take(_CHIP_LUT, words.view(np.uint8), axis=0).reshape(n_bits, -1)
    return chips[:, start - w0 * 64 : stop - w0 * 64]


def _chunk_cols(n_bits: int) -> int:
    """Host positions per (de)spreading block: a multiple of 64, so blocks
    start on a chip word, sized to keep the block near _SS_BLOCK_BYTES."""
    return max(64, _SS_BLOCK_BYTES // (4 * n_bits) // 64 * 64)


def ss_embed(archive: ModelArchive, payload: bytes, plan: AttackPlan) -> ModelArchive:
    """w' = w + gamma * sum_k b_k c_k with b_k = +/-1 from the coded bits."""
    if not plan.matches(payload):
        raise ValueError("payload does not match plan digest")
    coded = plan.ecc.encode(bytes_to_bits(payload))
    b = (coded.astype(np.float32) * 2.0 - 1.0)
    vec = host_vector(archive, plan.eligible)
    if vec.size != plan.host_n:
        raise ValueError("archive host size does not match plan")
    out = vec.copy()
    width = _chunk_cols(coded.size)
    for s in range(0, plan.host_n, width):
        e = min(s + width, plan.host_n)
        chips = _chip_block(plan, s, e, coded.size)
        out[s:e] += plan.gamma * (b @ chips)
    return scatter_host(archive, plan.eligible, out)


def ss_despread_many(hosts: np.ndarray, plan: AttackPlan) -> np.ndarray:
    """Correlations y[v, k] = <host_v, c_k> / N for a stack of host vectors.

    The chip matrix is regenerated chunk by chunk and shared across all
    rows, so evaluating many disrupted variants costs one sweep.
    """
    hosts = np.atleast_2d(np.asarray(hosts, dtype=np.float32))
    if hosts.shape[1] != plan.host_n:
        raise ValueError("host vector length does not match plan")
    k = plan.coded_bits
    y = np.zeros((hosts.shape[0], k), dtype=np.float64)
    width = _chunk_cols(k)
    for s in range(0, plan.host_n, width):
        e = min(s + width, plan.host_n)
        chips = _chip_block(plan, s, e, k)
        y += hosts[:, s:e] @ chips.T
    return y / plan.host_n


def decode_correlations(y: np.ndarray, plan: AttackPlan) -> tuple[bytes, SnrReading]:
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
    return payload, SnrReading(snr, mean, var, int(y.size))


def ss_extract(archive: ModelArchive, plan: AttackPlan) -> tuple[bytes, SnrReading]:
    vec = host_vector(archive, plan.eligible)
    y = ss_despread_many(vec[None, :], plan)[0]
    return decode_correlations(y, plan)

