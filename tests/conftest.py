import csv
import math

import numpy as np
import pytest

from neuperm.analysis import simulate_extraction_game
from neuperm.fixtures import ss_host, toy_cnn, toy_gqa, toy_mlp
from neuperm.inference import forward, softmax
from neuperm.rng import derive_seed


@pytest.fixture(scope="session")
def mlp_bundle():
    return toy_mlp()


@pytest.fixture(scope="session")
def cnn_bundle():
    return toy_cnn()


@pytest.fixture(scope="session")
def gqa_bundle():
    return toy_gqa()


@pytest.fixture(scope="session")
def small_host_bundle():
    """49k-parameter dense host: large enough for every embedding method."""
    return ss_host(width=128, layers=3)


@pytest.fixture(scope="session")
def all_bundles(mlp_bundle, cnn_bundle, gqa_bundle):
    return {"mlp": mlp_bundle, "cnn": cnn_bundle, "gqa": gqa_bundle}


def random_payload(seed: int, nbytes: int) -> bytes:
    """Benign random payload bytes derived from a frozen seed."""
    from neuperm.rng import SeededRng

    words = SeededRng(seed).next_block((nbytes + 7) // 8)
    return bytes(words.view(np.uint8)[:nbytes])


def gaussian_reference(rng, count: int) -> np.ndarray:
    """Box-Muller over one whole-array draw from `rng`'s stream: the
    reference that the blocked `SeededRng.gaussian_block` matches byte for
    byte, with the same state advance."""
    if count == 0:
        return np.empty(0, dtype=np.float64)
    pairs = (count + 1) // 2
    u = rng.uniform_block(2 * pairs)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def max_output_deviation(net, a, b, inputs) -> float:
    """Largest absolute |forward(a) - forward(b)| over the given inputs.

    Stricter than ``neuperm.inference.normalized_output_deviation`` (which
    the CLI verifies with) wherever outputs exceed 1, as some fixtures' do.
    """
    worst = 0.0
    for x in inputs:
        worst = float(np.maximum(worst, np.max(np.abs(forward(net, a, x) - forward(net, b, x)))))
    return worst


def mhsa_forward(w_heads, w_o, x: np.ndarray) -> np.ndarray:
    """Multi-head self-attention in the weights-left convention.

    x has tokens as columns: (d_model, T). Each head carries (wq, wk, wv)
    of shape (d_head, d_model); w_o is (d_model, h * d_head). Heads are
    concatenated vertically before the output projection. This is the form
    whose head-swap identity the proof tests exercise.
    """
    x = np.asarray(x, dtype=np.float64)
    outs = []
    for wq, wk, wv in w_heads:
        q = np.asarray(wq, dtype=np.float64) @ x
        k = np.asarray(wk, dtype=np.float64) @ x
        v = np.asarray(wv, dtype=np.float64) @ x
        scores = (q @ k.T) / np.sqrt(q.shape[0])
        outs.append(softmax(scores, axis=-1) @ v)
    return np.asarray(w_o, dtype=np.float64) @ np.concatenate(outs, axis=0)


def run_game_grid(ns, Ls, delta: float, trials: int, seed: int):
    """Extraction game over the n x L grid; each cell gets its own derived stream."""
    return [
        simulate_extraction_game(n, L, delta, trials, derive_seed(seed, f"game/{n}/{L}"))
        for n in ns
        for L in Ls
    ]


def write_grid_csv(path, results) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "delta", "L", "bound", "empirical", "trials"])
        for r in results:
            w.writerow([f"{1.0 / r.n:.10g}", f"{r.delta:.10g}", r.L, f"{r.bound:.10g}",
                        f"{r.rate:.10g}", r.trials])
