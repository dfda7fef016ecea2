"""Numeric checks of the algebraic identities behind every rewrite rule.

Each claim is exercised on randomized float64 instances with a 1e-6 residual
budget: permutation matrices commute with elementwise activations and
row-wise softmax, hidden-unit reordering cancels between producer and
consumer for dense and conv pairs, and head reordering cancels against the
output projection's column blocks in multi-head attention.
"""

import numpy as np
from conftest import mhsa_forward

from neuperm.inference import softmax
from neuperm.rng import SeededRng, derive_seed
from neuperm.tensor import fisher_yates, invert

TOL = 1e-6


def _perm_matrix(p: np.ndarray) -> np.ndarray:
    n = len(p)
    m = np.zeros((n, n))
    m[np.arange(n), p] = 1.0  # (P x)[i] = x[p[i]]
    return m


def test_perm_matrix_convention():
    p = np.array([2, 0, 1])
    x = np.array([10.0, 20.0, 30.0])
    assert np.array_equal(_perm_matrix(p) @ x, x[p])


def test_transposition_is_involution():
    rng = SeededRng(1)
    for trial in range(200):
        n = 2 + rng.bounded(6)
        i, j = rng.bounded(n), rng.bounded(n)
        p = np.arange(n)
        p[i], p[j] = p[j], p[i]
        r = _perm_matrix(p)
        assert np.array_equal(r @ r, np.eye(n))  # R^2 = I
        assert np.array_equal(r.T, r)  # R^T = R


def test_general_permutation_orthogonality():
    for trial in range(200):
        n = 2 + trial % 7
        p = fisher_yates(n, SeededRng(derive_seed(2, f"orth/{trial}")))
        r = _perm_matrix(p)
        assert np.array_equal(r @ r.T, np.eye(n))
        assert np.array_equal(r.T, _perm_matrix(invert(p)))


def test_elementwise_activation_commutes_with_permutation():
    rng = SeededRng(3)
    for trial in range(300):
        n = 2 + rng.bounded(10)
        z = rng.gaussian_block(n)
        p = fisher_yates(n, SeededRng(derive_seed(3, f"act/{trial}")))
        for phi in (lambda v: np.maximum(v, 0.0), np.tanh, lambda v: v * (v > 0.2)):
            assert np.array_equal(phi(z[p]), phi(z)[p])


def test_rowwise_softmax_commutes_with_row_permutation():
    rng = SeededRng(4)
    for trial in range(300):
        rows = 2 + rng.bounded(5)
        cols = 2 + rng.bounded(5)
        a = rng.gaussian_block(rows * cols).reshape(rows, cols) * 3.0
        p = fisher_yates(rows, SeededRng(derive_seed(4, f"sm/{trial}")))
        r = _perm_matrix(p)
        lhs = softmax(r @ a, axis=-1)
        rhs = r @ softmax(a, axis=-1)
        assert np.max(np.abs(lhs - rhs)) < TOL


def test_dense_pair_swap_claim_1000_instances():
    """w2 @ phi(w1 x + b1) is invariant under hidden reordering, 1000 times."""
    worst = 0.0
    for trial in range(1000):
        rng = SeededRng(derive_seed(5, f"fc/{trial}"))
        n_in = 1 + rng.bounded(6)
        n_hidden = 2 + rng.bounded(8)
        n_out = 1 + rng.bounded(6)
        w1 = rng.gaussian_block(n_hidden * n_in).reshape(n_hidden, n_in)
        b1 = rng.gaussian_block(n_hidden)
        w2 = rng.gaussian_block(n_out * n_hidden).reshape(n_out, n_hidden)
        x = rng.gaussian_block(n_in)
        p = fisher_yates(n_hidden, rng)
        base = w2 @ np.maximum(w1 @ x + b1, 0.0)
        moved = w2[:, p] @ np.maximum(w1[p] @ x + b1[p], 0.0)
        worst = max(worst, float(np.max(np.abs(base - moved))))
    assert worst < TOL, worst


def test_preactivation_swap_claim():
    """Permuting before the activation equals permuting after it."""
    rng = SeededRng(6)
    for trial in range(300):
        n = 2 + rng.bounded(8)
        w = rng.gaussian_block(n * n).reshape(n, n)
        x = rng.gaussian_block(n)
        p = fisher_yates(n, SeededRng(derive_seed(6, f"pre/{trial}")))
        r = _perm_matrix(p)
        assert np.max(np.abs(np.maximum(r @ (w @ x), 0.0) - r @ np.maximum(w @ x, 0.0))) == 0.0


def _conv2d_f64(x, w):
    c_out, c_in, k, _ = w.shape
    h = x.shape[1] - k + 1
    wdw = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return np.tensordot(w, wdw, axes=([1, 2, 3], [0, 3, 4]))


def test_conv_pair_swap_claim():
    """Channel reordering cancels between producing and consuming kernels."""
    worst = 0.0
    for trial in range(200):
        rng = SeededRng(derive_seed(7, f"conv/{trial}"))
        c_in, c_mid, c_out, k, sz = 2, 3 + rng.bounded(4), 2, 3, 6
        w1 = rng.gaussian_block(c_mid * c_in * k * k).reshape(c_mid, c_in, k, k)
        b1 = rng.gaussian_block(c_mid)
        w2 = rng.gaussian_block(c_out * c_mid * k * k).reshape(c_out, c_mid, k, k)
        x = rng.gaussian_block(c_in * sz * sz).reshape(c_in, sz, sz)
        p = fisher_yates(c_mid, rng)
        mid = np.maximum(_conv2d_f64(x, w1) + b1[:, None, None], 0.0)
        base = _conv2d_f64(mid, w2)
        mid_p = np.maximum(_conv2d_f64(x, w1[p]) + b1[p][:, None, None], 0.0)
        moved = _conv2d_f64(mid_p, w2[:, p])
        worst = max(worst, float(np.max(np.abs(base - moved))))
    assert worst < TOL, worst


def test_conv_bn_pair_swap_claim():
    """The four batchnorm vectors ride the channel permutation unchanged."""
    worst = 0.0
    for trial in range(100):
        rng = SeededRng(derive_seed(8, f"convbn/{trial}"))
        c_in, c_mid, c_out, k, sz = 2, 4, 2, 3, 6
        w1 = rng.gaussian_block(c_mid * c_in * k * k).reshape(c_mid, c_in, k, k)
        gamma = 0.5 + rng.uniform_block(c_mid)
        beta = rng.gaussian_block(c_mid)
        mean = rng.gaussian_block(c_mid)
        var = 0.5 + rng.uniform_block(c_mid)
        w2 = rng.gaussian_block(c_out * c_mid * k * k).reshape(c_out, c_mid, k, k)
        x = rng.gaussian_block(c_in * sz * sz).reshape(c_in, sz, sz)
        p = fisher_yates(c_mid, rng)

        def bn(v, g, b, m, s):
            return g[:, None, None] * (v - m[:, None, None]) / np.sqrt(
                s[:, None, None] + 1e-5
            ) + b[:, None, None]

        base = _conv2d_f64(np.maximum(bn(_conv2d_f64(x, w1), gamma, beta, mean, var), 0), w2)
        moved = _conv2d_f64(
            np.maximum(bn(_conv2d_f64(x, w1[p]), gamma[p], beta[p], mean[p], var[p]), 0),
            w2[:, p],
        )
        worst = max(worst, float(np.max(np.abs(base - moved))))
    assert worst < TOL, worst


def test_mhsa_head_swap_claim():
    """Reordering heads and w_o's d_head-wide column blocks is a no-op.

    Head k's output rows sit at k*d_head + i, so moving head k to slot j
    must move w_o columns k*d_head + i to j*d_head + i alongside.
    """
    worst = 0.0
    for trial in range(200):
        rng = SeededRng(derive_seed(9, f"mhsa/{trial}"))
        heads = 2 + rng.bounded(3)
        d_head = 1 + rng.bounded(3)
        d_model = 4 + rng.bounded(4)
        t = 3 + rng.bounded(4)
        w_heads = [
            tuple(
                rng.gaussian_block(d_head * d_model).reshape(d_head, d_model)
                for _ in range(3)
            )
            for _ in range(heads)
        ]
        w_o = rng.gaussian_block(d_model * heads * d_head).reshape(d_model, heads * d_head)
        x = rng.gaussian_block(d_model * t).reshape(d_model, t)
        p = fisher_yates(heads, rng)

        base = mhsa_forward(w_heads, w_o, x)
        # column index j*d_head + i of the permuted w_o reads head p[j]'s row i
        cols = (p[:, None] * d_head + np.arange(d_head)[None, :]).ravel()
        moved = mhsa_forward([w_heads[j] for j in p], w_o[:, cols], x)
        worst = max(worst, float(np.max(np.abs(base - moved))))
    assert worst < TOL, worst


def test_gqa_group_swap_claim(gqa_bundle):
    """End to end on the grouped-attention fixture: one group permutation
    applied to q/k/v rows and o columns leaves the network output unchanged
    to float16 tolerance."""
    from neuperm.engine import PermutationSchedule, apply_schedule
    from neuperm.inference import forward, random_inputs

    archive, desc, net = gqa_bundle
    p = fisher_yates(desc.site("attn").n, SeededRng(13))
    moved, _ = apply_schedule(archive, desc, PermutationSchedule(0, {"attn": p}))
    for x in random_inputs(net, 6, 202):
        a = forward(net, archive, x)
        b = forward(net, moved, x)
        assert np.max(np.abs(a - b)) < 1e-3
