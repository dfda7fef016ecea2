import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuperm.rng import GOLDEN, MASK64, SeededRng, mix64
from neuperm.tensor import (
    Tensor,
    fisher_yates,
    invert,
    is_permutation,
    permute_axis_blocks,
    tensor,
)

# Frozen permutations recomputed by scripts/oracle_goldens.py.
FY_4_SEED42 = [2, 0, 3, 1]
FY_8_SEED7 = [1, 4, 5, 2, 6, 0, 3, 7]


def test_tensor_basic_properties():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2) and t.dtype == "float32" and t.size == 4
    assert not t.data.flags.writeable


def test_tensor_f16_storage():
    t = tensor([1.0, 2.0], dtype="float16")
    assert t.dtype == "float16"
    assert t.data.dtype == np.float16
    assert t.f32().dtype == np.float32


def test_tensor_rejects_other_dtypes():
    with pytest.raises(ValueError):
        Tensor(np.array([1, 2], dtype=np.int32))
    with pytest.raises(ValueError):
        tensor([1.0], dtype="float64")
    with pytest.raises(TypeError):
        Tensor([1.0, 2.0])


@pytest.mark.parametrize("dtype", [">f4", ">f2"])
def test_tensor_rejects_non_native_byte_order(dtype):
    with pytest.raises(ValueError, match="native"):
        Tensor(np.array([1.0, 2.0], dtype=dtype))


def test_tensor_copies_writable_input():
    arr = np.zeros(3, dtype=np.float32)
    t = Tensor(arr)
    arr[0] = 7.0
    assert t.data[0] == 0.0


def test_f32_of_float32_is_the_stored_array():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    got = t.f32()
    assert got.dtype == np.float32 and np.shares_memory(got, t.data)
    assert not got.flags.writeable


def test_f32_of_float16_is_a_fresh_copy():
    t = tensor([1.0, 2.5, -3.0], dtype="float16")
    got = t.f32()
    assert got.dtype == np.float32 and got.flags.owndata
    assert not np.shares_memory(got, t.data)
    assert got.tolist() == [1.0, 2.5, -3.0]


def test_adopt_freezes_without_copying():
    arr = np.arange(4, dtype=np.float32)
    t = Tensor.adopt(arr)
    assert np.shares_memory(t.data, arr) and not arr.flags.writeable


def test_permutations_freeze_their_output_without_copying():
    t = tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    for out in (permute_axis_blocks(t, 1, np.array([3, 2, 1, 0])),
                permute_axis_blocks(t, 1, np.array([1, 0]))):
        assert not out.data.flags.writeable and out.data.flags.c_contiguous
        assert not np.shares_memory(out.data, t.data)
    assert permute_axis_blocks(t, 1, np.array([1, 0])).data.tolist() == [
        [2.0, 3.0, 0.0, 1.0], [6.0, 7.0, 4.0, 5.0], [10.0, 11.0, 8.0, 9.0],
    ]


def test_tensor_copies_misaligned_input():
    raw = np.zeros(4 * 3 + 1, dtype=np.uint8)
    view = raw[1:].view(np.float32)
    view.setflags(write=False)
    assert not view.flags.aligned
    t = Tensor(view)
    assert t.data.flags.aligned and not np.shares_memory(t.data, raw)


def test_same_bits_exact():
    a = tensor([1.0, -0.0])
    b = tensor([1.0, 0.0])
    assert not a.same_bits(b)  # -0.0 and 0.0 differ at the bit level
    assert a.same_bits(tensor([1.0, -0.0]))


def test_is_permutation():
    assert is_permutation(np.array([2, 0, 1]), 3)
    assert not is_permutation(np.array([0, 0, 1]), 3)
    assert not is_permutation(np.array([0, 1]), 3)
    assert not is_permutation(np.array([0, 1, 3]), 3)
    assert not is_permutation(np.array([0.0, 1.0, 2.0]), 3)


def test_invert_roundtrip():
    p = np.array([2, 0, 3, 1])
    inv = invert(p)
    assert inv[p].tolist() == [0, 1, 2, 3]
    assert p[inv].tolist() == [0, 1, 2, 3]


def test_fisher_yates_goldens():
    assert fisher_yates(4, SeededRng(42)).tolist() == FY_4_SEED42
    assert fisher_yates(8, SeededRng(7)).tolist() == FY_8_SEED7
    assert fisher_yates(1, SeededRng(9)).tolist() == [0]


def _fisher_yates_reference(n: int, seed: int):
    """Descending swap loop with one sequential bounded draw per step, in
    pure Python ints: (permutation, stream state afterwards)."""
    a, state = list(range(n)), seed & MASK64
    for i in range(n - 1, 0, -1):
        limit = ((1 << 64) // (i + 1)) * (i + 1)
        while True:
            state = (state + GOLDEN) & MASK64
            x = mix64(state)
            if x < limit:
                break
        j = x % (i + 1)
        a[i], a[j] = a[j], a[i]
    return a, state


@pytest.mark.parametrize("n, seed", [(1, 9), (2, 3), (8, 7), (97, 5), (4096, 11)])
def test_fisher_yates_matches_sequential_reference(n, seed):
    want, state = _fisher_yates_reference(n, seed)
    rng = SeededRng(seed)
    assert fisher_yates(n, rng).tolist() == want
    # later draws from the same rng continue where the sequential loop stops
    assert rng._state == state
    ref = SeededRng(0)
    ref._state = state
    assert rng.next_block(3).tolist() == ref.next_block(3).tolist()


def test_fisher_yates_4096_frozen():
    # frozen before the draws were batched: the permutation and the words after it
    rng = SeededRng(11)
    p = fisher_yates(4096, rng)
    assert hashlib.sha256(p.astype("<i8").tobytes()).hexdigest() == (
        "d6a15979ef7fd50341e728ca9d6d41fafd447b3a8198fa923e6a6927c2de781e"
    )
    assert rng.next_block(2).tolist() == [0x529F4C38A7F8704F, 0xBC1312FF2F95B016]
    assert rng.bounded(1000) == 661


def test_fisher_yates_rejects_nonpositive():
    with pytest.raises(ValueError):
        fisher_yates(0, SeededRng(0))


def test_permute_axis_semantics():
    t = tensor([[0.0, 1.0], [10.0, 11.0], [20.0, 21.0]])
    p = np.array([2, 0, 1])
    out = permute_axis_blocks(t, 0, p)
    # out[i] = in[p[i]]
    assert out.data.tolist() == [[20.0, 21.0], [0.0, 1.0], [10.0, 11.0]]
    cols = permute_axis_blocks(t, 1, np.array([1, 0]))
    assert cols.data.tolist() == [[1.0, 0.0], [11.0, 10.0], [21.0, 20.0]]


def test_permute_axis_rejects_bad_perm():
    t = tensor([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        permute_axis_blocks(t, 0, np.array([0, 0]))


def test_permute_axis_blocks_moves_whole_blocks():
    t = tensor(np.arange(8, dtype=np.float32))
    out = permute_axis_blocks(t, 0, np.array([3, 2, 1, 0]))  # blocks of 2
    assert out.data.tolist() == [6.0, 7.0, 4.0, 5.0, 2.0, 3.0, 0.0, 1.0]


def test_permute_axis_blocks_block1_equals_plain():
    """One slice per block is the plain slice permutation: np.take's result."""
    t = tensor(SeededRng(3).gaussian_block(60).reshape(3, 4, 5))
    for axis in range(3):
        p = fisher_yates(t.shape[axis], SeededRng(axis))
        want = np.take(t.data, p, axis=axis)
        assert permute_axis_blocks(t, axis, p).same_bits(Tensor(want))


def test_permute_axis_blocks_validates_divisibility():
    t = tensor(np.arange(6, dtype=np.float32))
    with pytest.raises(ValueError):
        permute_axis_blocks(t, 0, np.array([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        permute_axis_blocks(t, 0, np.array([], dtype=np.int64))


def test_permutation_preserves_bits_f16():
    rng = SeededRng(5)
    vals = rng.gaussian_block(64).astype(np.float16).reshape(8, 8)
    t = Tensor(vals)
    p = fisher_yates(8, SeededRng(1))
    out = permute_axis_blocks(t, 0, p)
    assert out.dtype == "float16"
    assert sorted(out.data.view(np.uint16).ravel().tolist()) == sorted(
        t.data.view(np.uint16).ravel().tolist()
    )


@given(st.integers(0, 2**32), st.integers(1, 64))
@settings(max_examples=100)
def test_fisher_yates_is_permutation(seed, n):
    p = fisher_yates(n, SeededRng(seed))
    assert is_permutation(p, n)
    # deterministic in the seed
    assert np.array_equal(p, fisher_yates(n, SeededRng(seed)))


@given(st.integers(0, 2**32), st.integers(1, 16), st.integers(1, 6))
@settings(max_examples=100)
def test_permute_then_inverse_is_identity(seed, n, cols):
    vals = SeededRng(seed).gaussian_block(n * cols).astype(np.float32).reshape(n, cols)
    t = Tensor(vals)
    p = fisher_yates(n, SeededRng(seed + 1))
    back = permute_axis_blocks(permute_axis_blocks(t, 0, p), 0, invert(p))
    assert back.same_bits(t)


@given(st.integers(0, 2**32), st.sampled_from([1, 2, 4, 8]), st.integers(1, 8))
@settings(max_examples=60)
def test_block_permute_inverse_roundtrip(seed, block, n_blocks):
    extent = block * n_blocks
    vals = SeededRng(seed).gaussian_block(extent * 3).astype(np.float32).reshape(extent, 3)
    t = Tensor(vals)
    p = fisher_yates(n_blocks, SeededRng(seed ^ 0xABCD))
    back = permute_axis_blocks(permute_axis_blocks(t, 0, p), 0, invert(p))
    assert back.same_bits(t)


def test_fixed_point_statistics():
    # over many uniform permutations the mean fixed-point count approaches 1
    total = 0
    trials = 2000
    n = 16
    for i in range(trials):
        p = fisher_yates(n, SeededRng(900_000 + i))
        total += int((p == np.arange(n)).sum())
    mean = total / trials
    # Var of the count is 1, so the trial mean has sigma ~ 1/sqrt(trials)
    assert abs(mean - 1.0) < 5 / trials**0.5
