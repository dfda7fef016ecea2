"""Deterministic randomness for everything in this package.

The generator is SplitMix64: a 64-bit counter stream pushed through a
finalizer. Because the i-th state is just ``seed + (i+1) * GOLDEN`` mod 2^64,
bulk output can be produced vectorized in numpy while staying bit-identical
to the sequential path.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Box-Muller pairs per `gaussian_block` block. A thread's scratch, 32 bytes
#: a pair (0.5 MB), fits a core's L2 cache; longer blocks raise peak memory,
#: and shorter ones spend more of their time handing over the GIL, which
#: every numpy call in a block releases and takes back.
_GAUSS_PAIRS = 16384


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a single 64-bit value (pure Python ints)."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; `tmp` is scratch of
    the same shape. Only for arrays this module made: it overwrites `z`."""
    # uint64 array ops wrap mod 2^64 silently, which is exactly what we want
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= np.uint64(mul)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & MASK64
    return h


def derive_seed(base: int, label: str) -> int:
    """Child seed for an independent stream, stable across runs and platforms."""
    return mix64((base & MASK64) ^ fnv1a64(label.encode("utf-8")))


class SeededRng:
    """SplitMix64 stream.

    state advances by GOLDEN before each output; output = mix64(state).
    Seed 0 must yield 0xE220A8397B1DCDAF first (reference vector).
    """

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_block(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array (vectorized, same stream)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        out = np.uint64(self._state) + steps
        _mix64_array(out, steps)  # the steps are spent: they serve as its scratch
        self._state = (self._state + count * GOLDEN) & MASK64
        return out

    def bounded(self, n: int) -> int:
        """Uniform draw from [0, n); one-element `bounded_block`."""
        return int(self.bounded_block([n])[0])

    def bounded_block(self, moduli) -> np.ndarray:
        """Uniform draws from [0, m) for each m in `moduli`, as a uint64 array.

        Bounded rejection: a word w is rejected when w >= 2^64 - (2^64 mod m)
        and the next word is tried for the same m; accepted words are reduced
        mod m, so every residue is exactly equally likely. Equal, value for
        value and word for word, to drawing the moduli one at a time: the
        words come from one `next_block`, and on the first rejection the
        accepted prefix is kept, the state rewound past the words drawn after
        the rejected one, and the rest drawn again. Moduli lie in [1, 2^64).
        A modulus rejects with probability below m/2^64, so the redraws are
        rare at any size this package uses; moduli near 2^63 reject about
        half the words and cost time quadratic in their count.
        """
        if isinstance(moduli, np.ndarray):
            if moduli.dtype.kind not in "iu":
                raise ValueError("moduli must be integers")
            lo, hi = (int(moduli.min()), int(moduli.max())) if moduli.size else (1, 1)
        else:
            moduli = [operator.index(m) for m in moduli]
            lo, hi = (min(moduli), max(moduli)) if moduli else (1, 1)
        if lo < 1 or hi > MASK64:
            raise ValueError("moduli must lie in [1, 2**64)")
        m = np.asarray(moduli, dtype=np.uint64).ravel()
        top = ~((np.uint64(0) - m) % m)  # largest accepted word: 2^64 - 1 - (2^64 mod m)
        out = np.empty(m.size, dtype=np.uint64)
        done = 0
        while done < m.size:
            words = self.next_block(m.size - done)
            bad = np.flatnonzero(words > top[done:])
            k = int(bad[0]) if bad.size else words.size
            out[done : done + k] = words[:k] % m[done : done + k]
            if bad.size:
                self._state = (self._state - (words.size - k - 1) * GOLDEN) & MASK64
            done += k
        return out

    def uniform_block(self, count: int) -> np.ndarray:
        """float64 uniforms in (0, 1], 53-bit resolution."""
        words = self.next_block(count)
        return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def gaussian_block(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller on the stream (float64).

        Word pairs (u1, u2) produce (z0, z1) interleaved; an odd count drops
        the final z1. u1 lies in (0, 1] so log never sees zero.

        The pairs are drawn in blocks of ``_GAUSS_PAIRS`` on every CPU: one
        ``sweep.run_ordered`` item per thread, each taking the next undrawn
        block until none is left, so a thread that is held up delays only
        the block it holds. A block rebuilds its words from their stream
        positions and takes each element through the same float64 steps
        (uniform, log, sqrt, theta, cos, sin), so the bytes and the state
        advance are those of one whole-array draw at any worker count. Never
        call this from a ``run_ordered`` producer: nested sweeps would race
        on the OpenBLAS thread count.
        """
        if count == 0:
            return np.empty(0, dtype=np.float64)
        # imported here, so streams that draw no normals never load the sweep module
        from .sweep import run_ordered, workers

        pairs = (count + 1) // 2
        size = min(pairs, _GAUSS_PAIRS)
        state = self._state
        steps = np.arange(1, 2 * size + 1, dtype=np.uint64)
        steps *= np.uint64(GOLDEN)
        out = np.empty(2 * pairs, dtype=np.float64)
        blocks = iter(range(0, pairs, size))
        taking = threading.Lock()

        def fill_blocks(_) -> None:
            scratch = np.empty((2, 2 * size), np.uint64)  # this thread's, for all its blocks
            while True:
                with taking:
                    p0 = next(blocks, None)
                if p0 is None:
                    return
                m = min(size, pairs - p0)
                words, tmp = scratch[:, : 2 * m]
                np.add(steps[: 2 * m], np.uint64((state + 2 * p0 * GOLDEN) & MASK64), out=words)
                _mix64_array(words, tmp)
                words >>= np.uint64(11)
                # each scratch row is reused as float64 once its contents are spent:
                # tmp holds the uniforms and then cos and sin, words holds r and theta
                u = tmp.view(np.float64)
                np.add(words, 1.0, out=u)  # exact: the words are below 2^53
                u *= 2.0**-53
                r, theta = words.view(np.float64).reshape(2, m)
                np.log(u[0::2], out=r)
                r *= -2.0
                np.sqrt(r, out=r)
                np.multiply(u[1::2], 2.0 * math.pi, out=theta)
                trig = u[:m]
                np.multiply(r, np.cos(theta, out=trig), out=out[2 * p0 : 2 * (p0 + m) : 2])
                np.multiply(r, np.sin(theta, out=trig), out=out[2 * p0 + 1 : 2 * (p0 + m) : 2])

        threads = min(workers(), -(-pairs // size))
        run_ordered(fill_blocks, lambda *_: None, range(threads))
        self._state = (state + 2 * pairs * GOLDEN) & MASK64
        return out[:count]


def words_at(seed: int, indices: np.ndarray) -> np.ndarray:
    """Random access into the stream for `seed`: word j = mix64(seed + (j+1)*GOLDEN).

    `indices` is any uint64 array of word positions; output has its shape.
    Chip generation leans on this to pull scattered stream ranges in one call.
    """
    idx = np.asarray(indices, dtype=np.uint64) + np.uint64(1)  # a new array: `indices` stays
    z = idx * np.uint64(GOLDEN)
    z += np.uint64(seed & MASK64)
    return _mix64_array(z, idx)  # the positions are spent: they serve as its scratch
