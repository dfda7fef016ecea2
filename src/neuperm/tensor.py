"""Immutable tensors and exact permutation primitives.

Tensors carry float32 or float16 payloads (the ``DTYPES`` table, the one
list of supported dtypes) in native byte order, row-major. Permutations
move whole slices without touching their bits, so any permutation op is
lossless on either dtype.

A tensor never copies what it can share. It wraps a read-only, contiguous,
aligned array as it is, so tensors parsed from one load buffer stay views
of it; it copies only a caller's writable array or one that is
non-contiguous or misaligned. Code that builds a fresh array, such as a
permutation's ``np.take`` result, hands it over with ``Tensor.adopt``, which
freezes it in place, and ``f32()`` hands out the stored array itself for
float32 data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SeededRng

#: every dtype a Tensor may hold, by numpy name, with its safetensors tag
DTYPES = {"float32": "F32", "float16": "F16"}


@dataclass(frozen=True)
class Tensor:
    """Shape + dtype + row-major data. Frozen; ops return new tensors."""

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not isinstance(arr, np.ndarray):
            raise TypeError("Tensor wraps a numpy array")
        if arr.dtype.name not in DTYPES or not arr.dtype.isnative:
            raise ValueError(
                f"unsupported dtype {arr.dtype}; use native-order {' or '.join(DTYPES)}"
            )
        if arr.flags.writeable or not (arr.flags.c_contiguous and arr.flags.aligned):
            arr = np.array(arr, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, "data", arr)

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "Tensor":
        """Wrap an array the caller hands over and never writes again: it is
        frozen in place instead of copied."""
        arr.setflags(write=False)
        return cls(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return self.data.dtype.name

    @property
    def size(self) -> int:
        return int(self.data.size)

    def f32(self) -> np.ndarray:
        """The values in float32, where inference arithmetic runs: the stored
        read-only array itself for float32 data, a converted copy for float16."""
        if self.data.dtype == np.float32:
            return self.data
        return self.data.astype(np.float32)

    def same_bits(self, other: "Tensor") -> bool:
        return (
            self.dtype == other.dtype
            and self.shape == other.shape
            and bool(np.array_equal(self.data.view(np.uint8), other.data.view(np.uint8)))
        )


def tensor(values, dtype: str = "float32") -> Tensor:
    """Build a Tensor, rounding to the storage dtype (round-to-nearest-even)."""
    if dtype not in DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}")
    return Tensor.adopt(np.asarray(values).astype(dtype, order="C"))


def is_permutation(p: np.ndarray, n: int) -> bool:
    p = np.asarray(p)
    if p.shape != (n,) or p.dtype.kind not in "iu":
        return False
    seen = np.zeros(n, dtype=bool)
    ok = (p >= 0) & (p < n)
    if not ok.all():
        return False
    seen[p] = True
    return bool(seen.all())


def invert(p: np.ndarray) -> np.ndarray:
    """Inverse permutation: invert(p)[p[i]] == i."""
    p = np.asarray(p, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=np.int64)
    return inv


def fisher_yates(n: int, rng: SeededRng) -> np.ndarray:
    """Uniform random permutation of range(n).

    Classic descending swap loop; the index draws (moduli n, n-1, ..., 2)
    come from one `bounded_block` call, the same words the sequential
    sampler would use, so every one of the n! orderings is exactly equally
    likely. n == 1 consumes no randomness.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    draws = rng.bounded_block(np.arange(n, 1, -1, dtype=np.int64)).tolist()
    a = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        a[i], a[j] = a[j], a[i]
    return np.asarray(a, dtype=np.int64)


def permute_axis_blocks(t: Tensor, axis: int, p: np.ndarray) -> Tensor:
    """Cut `axis` into len(p) equal contiguous blocks; block i of the output
    is block p[i] of the input.

    With one slice per block (len(p) equal to the extent) this is the plain
    slice permutation out[..., i, ...] = in[..., p[i], ...]; wider blocks
    move whole kv groups of grouped-query attention.
    """
    shape = t.shape
    extent, n = shape[axis], len(p)
    if n == 0 or extent % n != 0:
        raise ValueError(f"axis extent {extent} not divisible into {n} blocks")
    if not is_permutation(p, n):
        raise ValueError(f"not a permutation of length {n}")
    grouped = t.data.reshape(shape[:axis] + (n, extent // n) + shape[axis + 1 :])
    moved = np.take(grouped, np.asarray(p, dtype=np.int64), axis=axis)
    return Tensor.adopt(moved.reshape(shape))
