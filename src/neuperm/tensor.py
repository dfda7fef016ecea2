"""Immutable tensors and exact permutation primitives.

Tensors carry float32 or float16 payloads in row-major order. Permutations
move whole slices without touching their bits, so any permutation op is
lossless on either dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SeededRng

_NUMPY_DTYPES = {"float32": np.float32, "float16": np.float16}
_DTYPE_NAMES = {np.dtype(np.float32): "float32", np.dtype(np.float16): "float16"}


@dataclass(frozen=True)
class Tensor:
    """Shape + dtype + row-major data. Frozen; ops return new tensors."""

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not isinstance(arr, np.ndarray):
            raise TypeError("Tensor wraps a numpy array")
        if arr.dtype not in _DTYPE_NAMES:
            raise ValueError(f"unsupported dtype {arr.dtype}; use float32 or float16")
        if not arr.flags.c_contiguous or arr.flags.writeable:
            arr = np.ascontiguousarray(arr).copy()
            arr.setflags(write=False)
            object.__setattr__(self, "data", arr)
        else:
            arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    @property
    def size(self) -> int:
        return int(self.data.size)

    def f32(self) -> np.ndarray:
        """Compute copy in float32 (inference arithmetic always runs here)."""
        return self.data.astype(np.float32)

    def same_bits(self, other: "Tensor") -> bool:
        return (
            self.dtype == other.dtype
            and self.shape == other.shape
            and bool(np.array_equal(self.data.view(np.uint8), other.data.view(np.uint8)))
        )


def tensor(values, dtype: str = "float32") -> Tensor:
    """Build a Tensor, rounding to the storage dtype (round-to-nearest-even)."""
    if dtype not in _NUMPY_DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}")
    return Tensor(np.asarray(values).astype(_NUMPY_DTYPES[dtype]))


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


def permute_axis(t: Tensor, axis: int, p: np.ndarray) -> Tensor:
    """Reorder slices along `axis`: out[..., i, ...] = in[..., p[i], ...]."""
    n = t.shape[axis]
    if not is_permutation(p, n):
        raise ValueError(f"not a permutation of length {n}")
    return Tensor(np.take(t.data, np.asarray(p, dtype=np.int64), axis=axis))


def permute_axis_blocks(t: Tensor, axis: int, p: np.ndarray, n_blocks: int) -> Tensor:
    """Permute `axis` in n_blocks equal contiguous blocks.

    Block size extent/n_blocks; with n_blocks == extent this is permute_axis.
    Used for grouped-head attention where a permutation moves whole head
    groups rather than single rows.
    """
    extent = t.shape[axis]
    if n_blocks <= 0 or extent % n_blocks != 0:
        raise ValueError(f"axis extent {extent} not divisible into {n_blocks} blocks")
    if not is_permutation(p, n_blocks):
        raise ValueError(f"not a permutation of length {n_blocks}")
    block = extent // n_blocks
    if block == 1:
        return permute_axis(t, axis, p)
    shape = t.shape
    grouped = t.data.reshape(shape[:axis] + (n_blocks, block) + shape[axis + 1 :])
    moved = np.take(grouped, np.asarray(p, dtype=np.int64), axis=axis)
    return Tensor(np.ascontiguousarray(moved.reshape(shape)))
