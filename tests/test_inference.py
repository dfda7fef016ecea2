import json
import math

import numpy as np
import pytest
from conftest import max_output_deviation, mhsa_forward

import neuperm.inference as inference
from neuperm.archive import ModelArchive
from neuperm.inference import (
    LayerSpec,
    ToyNetwork,
    forward,
    load_network,
    network_from_dict,
    network_to_dict,
    normalized_output_deviation,
    parse_network,
    random_inputs,
    softmax,
)
from neuperm.rng import SeededRng, derive_seed
from neuperm.sweep import blas_single_thread
from neuperm.tensor import Tensor, tensor


def _dense_net(layers):
    return ToyNetwork(layers=tuple(layers), input_kind="vector", input_shape=())


def test_layerspec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LayerSpec(kind="totally-new")
    with pytest.raises(ValueError):
        ToyNetwork(layers=(), input_kind="audio", input_shape=())


@pytest.mark.parametrize("kind, params, missing", [
    ("dense", {"bias": "b"}, "weight"),
    ("conv2d", {"bias": "b"}, "weight"),
    ("batchnorm2d", {"gamma": "g", "beta": "b", "running_mean": "m"}, "running_var"),
    ("layernorm", {"gamma": "g"}, "beta"),
    ("embedding-lookup", {}, "table"),
    ("attention_gqa", {"wq": "q", "wk": "k", "wv": "v"}, "wo"),
])
def test_layerspec_requires_params(kind, params, missing):
    with pytest.raises(ValueError, match=f"lacks required param '{missing}'"):
        LayerSpec(kind, params)


@pytest.mark.parametrize("key, value", [
    ("kernel", 0), ("kernel", 1.5), ("kernel", True), ("stride", 0), ("stride", -1),
    ("padding", -1), ("h_q", 0), ("h_kv", 2.0), ("head_dim", -4), ("vocab", 0),
])
def test_layerspec_rejects_bad_integer_hyper(key, value):
    with pytest.raises(ValueError, match=f"'{key}' must be an integer >= "):
        LayerSpec("avgpool2d", hyper={key: value})


def test_softmax_stability_and_normalization():
    a = np.array([[1000.0, 1000.0, 1000.0], [-1000.0, 0.0, 1000.0]])
    s = softmax(a)
    assert np.all(np.isfinite(s))
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert np.allclose(s[0], [1 / 3] * 3)


def test_dense_identity_passthrough():
    arch = ModelArchive({"w": tensor(np.eye(3, dtype=np.float32))})
    net = _dense_net([LayerSpec("dense", {"weight": "w"})])
    x = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    assert np.array_equal(forward(net, arch, x), x)


def test_dense_bias_and_relu():
    arch = ModelArchive(
        {
            "w": tensor([[1.0, 0.0], [0.0, -1.0]]),
            "b": tensor([0.5, 0.5]),
        }
    )
    net = _dense_net([LayerSpec("dense", {"weight": "w", "bias": "b"}), LayerSpec("relu")])
    out = forward(net, arch, np.array([1.0, 1.0], dtype=np.float32))
    assert out.tolist() == [1.5, 0.0]


def test_mlp_against_float64_reference(mlp_bundle):
    """The toy forward agrees with a plain float64 matmul chain to ~1e-6."""
    archive, _, net = mlp_bundle
    rng = SeededRng(414)
    for _ in range(5):
        x = rng.gaussian_block(8).astype(np.float32)
        h = x.astype(np.float64)
        names = ["fc1", "fc2", "fc3", "fc4"]
        for i, nm in enumerate(names):
            w = archive.tensors[f"{nm}.weight"].data.astype(np.float64)
            h = h @ w.T
            if f"{nm}.bias" in archive.tensors:
                h = h + archive.tensors[f"{nm}.bias"].data.astype(np.float64)
            if i < len(names) - 1:
                h = np.maximum(h, 0.0)
        got = forward(net, archive, x)
        assert np.max(np.abs(got - h)) < 1e-5


def test_conv2d_hand_case():
    # single 2x2 kernel of ones over a 3x3 ramp: each output is a window sum
    img = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
    arch = ModelArchive(
        {"k": tensor(np.ones((1, 1, 2, 2), dtype=np.float32)), "b": tensor([1.0])}
    )
    net = ToyNetwork(
        layers=(LayerSpec("conv2d", {"weight": "k", "bias": "b"}),),
        input_kind="image",
        input_shape=(1, 3, 3),
    )
    out = forward(net, arch, img)
    assert out.shape == (1, 2, 2)
    assert out[0].tolist() == [[9.0, 13.0], [21.0, 25.0]]


def test_conv2d_padding_and_stride():
    img = np.ones((1, 4, 4), dtype=np.float32)
    arch = ModelArchive({"k": tensor(np.ones((1, 1, 3, 3), dtype=np.float32))})
    net = ToyNetwork(
        layers=(LayerSpec("conv2d", {"weight": "k"}, {"stride": 2, "padding": 1}),),
        input_kind="image",
        input_shape=(1, 4, 4),
    )
    out = forward(net, arch, img)
    assert out.shape == (1, 2, 2)
    # corner window covers 2x2 ones, center-ish windows 3x3 minus the pad
    assert out[0, 0, 0] == 4.0 and out[0, 1, 1] == 9.0


def test_maxpool_golden():
    img = np.array([[[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]],
                   dtype=np.float32)
    net = ToyNetwork(
        layers=(LayerSpec("maxpool2d", {}, {"kernel": 2}),),
        input_kind="image",
        input_shape=(1, 4, 4),
    )
    out = forward(net, ModelArchive(), img)
    assert out[0].tolist() == [[6.0, 8.0], [14.0, 16.0]]


def test_avgpool_window_golden():
    img = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4)
    net = ToyNetwork(
        layers=(LayerSpec("avgpool2d", {}, {"kernel": 2}),),
        input_kind="image",
        input_shape=(1, 4, 4),
    )
    out = forward(net, ModelArchive(), img)
    assert out[0].tolist() == [[3.5, 5.5], [11.5, 13.5]]


def test_avgpool_global():
    img = np.stack([np.full((2, 2), 3.0), np.full((2, 2), 7.0)]).astype(np.float32)
    net = ToyNetwork(
        layers=(LayerSpec("avgpool2d", {}, {"global": True}),),
        input_kind="image",
        input_shape=(2, 2, 2),
    )
    assert forward(net, ModelArchive(), img).tolist() == [3.0, 7.0]


def test_batchnorm_formula():
    x = np.array([[[2.0]], [[4.0]]], dtype=np.float32)
    arch = ModelArchive(
        {
            "g": tensor([2.0, 1.0]),
            "be": tensor([0.0, 1.0]),
            "mu": tensor([1.0, 2.0]),
            "var": tensor([4.0, 1.0]),
        }
    )
    net = ToyNetwork(
        layers=(
            LayerSpec(
                "batchnorm2d",
                {"gamma": "g", "beta": "be", "running_mean": "mu", "running_var": "var"},
                {"eps": 1e-12},
            ),
        ),
        input_kind="image",
        input_shape=(2, 1, 1),
    )
    out = forward(net, arch, x)
    assert np.allclose(out.ravel(), [2.0 * (2 - 1) / 2, (4 - 2) / 1 + 1])


def test_layernorm_zero_mean_unit_var():
    arch = ModelArchive({"g": tensor([1.0] * 4), "b": tensor([0.0] * 4)})
    net = _dense_net([LayerSpec("layernorm", {"gamma": "g", "beta": "b"}, {"eps": 1e-12})])
    out = forward(net, arch, np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))
    assert abs(out.mean()) < 1e-6
    assert abs(out.std() - 1.0) < 1e-6


def test_embedding_lookup_and_range_check():
    table = np.arange(12, dtype=np.float32).reshape(4, 3)
    arch = ModelArchive({"emb": Tensor(table)})
    net = ToyNetwork(
        layers=(LayerSpec("embedding-lookup", {"table": "emb"}, {"vocab": 4}),),
        input_kind="tokens",
        input_shape=(2,),
    )
    out = forward(net, arch, np.array([3, 0]))
    assert out.tolist() == [[9.0, 10.0, 11.0], [0.0, 1.0, 2.0]]
    with pytest.raises(ValueError, match="out of range"):
        forward(net, arch, np.array([4, 0]))


def test_input_shape_validation(cnn_bundle):
    archive, _, net = cnn_bundle
    with pytest.raises(ValueError, match="input shape"):
        forward(net, archive, np.zeros((3, 4, 4), dtype=np.float32))


def test_attention_gqa_against_slow_reference(gqa_bundle):
    """The einsum attention agrees with an explicit per-head float64 loop."""
    archive, _, net = gqa_bundle
    attn_layer = next(l for l in net.layers if l.kind == "attention_gqa")
    h_q, h_kv = int(attn_layer.hyper["h_q"]), int(attn_layer.hyper["h_kv"])
    head_dim = int(attn_layer.hyper["head_dim"])
    causal = bool(attn_layer.hyper.get("causal", False))
    wq = archive.tensors[attn_layer.params["wq"]].f32().astype(np.float64)
    wk = archive.tensors[attn_layer.params["wk"]].f32().astype(np.float64)
    wv = archive.tensors[attn_layer.params["wv"]].f32().astype(np.float64)
    wo = archive.tensors[attn_layer.params["wo"]].f32().astype(np.float64)

    t = 5
    x = SeededRng(808).gaussian_block(t * wq.shape[1]).reshape(t, wq.shape[1])

    # slow reference: loop over query heads, integer-divide to the kv head
    q = (x @ wq.T).reshape(t, h_q, head_dim)
    k = (x @ wk.T).reshape(t, h_kv, head_dim)
    v = (x @ wv.T).reshape(t, h_kv, head_dim)
    group = h_q // h_kv
    heads = []
    for h in range(h_q):
        kv = h // group
        scores = (q[:, h, :] @ k[:, kv, :].T) / np.sqrt(head_dim)
        if causal:
            scores = scores + np.triu(np.full((t, t), -np.inf), k=1)
        heads.append(softmax(scores, axis=-1) @ v[:, kv, :])
    want = np.concatenate(heads, axis=-1) @ wo.T

    from neuperm.inference import _attention_gqa

    got = _attention_gqa(
        x.astype(np.float32),
        wq.astype(np.float32), wk.astype(np.float32),
        wv.astype(np.float32), wo.astype(np.float32),
        h_q, h_kv, head_dim, causal,
    )
    assert np.max(np.abs(got - want)) < 1e-3  # float32 vs float64 path


def test_mhsa_forward_shapes():
    rng = SeededRng(21)
    d_model, d_head, heads, t = 6, 2, 3, 4
    w_heads = [
        tuple(rng.gaussian_block(d_head * d_model).reshape(d_head, d_model) for _ in range(3))
        for _ in range(heads)
    ]
    w_o = rng.gaussian_block(d_model * heads * d_head).reshape(d_model, heads * d_head)
    x = rng.gaussian_block(d_model * t).reshape(d_model, t)
    out = mhsa_forward(w_heads, w_o, x)
    assert out.shape == (d_model, t)


def test_network_dict_roundtrip(cnn_bundle):
    _, _, net = cnn_bundle
    back = network_from_dict(network_to_dict(net))
    assert back == net
    assert parse_network(json.dumps(network_to_dict(net))) == net


def test_load_network(tmp_path, mlp_bundle):
    _, _, net = mlp_bundle
    p = tmp_path / "net.json"
    p.write_text(json.dumps(network_to_dict(net)))
    assert load_network(p) == net


def test_random_inputs_deterministic(all_bundles):
    for name, (_, _, net) in all_bundles.items():
        a = random_inputs(net, 4, 99)
        b = random_inputs(net, 4, 99)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb), name
        assert len(a) == 4


def test_random_inputs_tokens_in_vocab(gqa_bundle):
    archive, _, net = gqa_bundle
    vocab = archive.tensors["emb.table"].shape[0]
    for x in random_inputs(net, 8, 5):
        assert x.dtype == np.int64
        assert x.min() >= 0 and x.max() < vocab


@pytest.mark.parametrize("at", [0, 2])
def test_nan_probe_makes_deviation_nan(mlp_bundle, at):
    """A probe whose outputs are NaN is not read as deviation 0, wherever it
    falls among the probes."""
    archive, _, net = mlp_bundle
    inputs = random_inputs(net, 3, 1)
    inputs[at] = np.full_like(inputs[at], np.nan)
    assert math.isnan(normalized_output_deviation(net, archive, archive, inputs))
    assert math.isnan(max_output_deviation(net, archive, archive, inputs))


def test_deviation_helpers(mlp_bundle):
    archive, _, net = mlp_bundle
    inputs = random_inputs(net, 3, 1)
    assert max_output_deviation(net, archive, archive, inputs) == 0.0
    assert normalized_output_deviation(net, archive, archive, inputs) == 0.0
    # a genuinely different archive must register
    bumped = archive.replace(
        {"fc1.weight": Tensor(archive.tensors["fc1.weight"].data + np.float32(0.1))}
    )
    assert max_output_deviation(net, archive, bumped, inputs) > 0.0


@pytest.mark.parametrize("rows, cols", [(1024, 2048), (130, 4096), (333, 2048), (1000, 513),
                                        (100, 37), (64, 7)])
def test_dense_row_blocks_give_the_one_thread_gemv(rows, cols):
    """A dense weight in blocks of a multiple of 64 rows gives each vector
    probe the bits of its gemv on the whole weight on one BLAS thread, at
    any thread count. On several threads the whole weight's gemv splits its
    rows where OpenBLAS likes: at 130 x 4096 on two threads, rows 64, 128
    and 129 came out rounded differently."""
    rng = np.random.default_rng(rows + cols)
    w = rng.standard_normal((rows, cols), dtype=np.float32)
    probes = [rng.standard_normal(cols, dtype=np.float32) for _ in range(3)]
    with blas_single_thread():
        want = [x @ w.T for x in probes]
    got = inference._dense_in_blocks(ModelArchive({"w": Tensor.adopt(w)}), {"weight": "w"}, probes)
    assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))
