"""Deterministic model fixtures.

Everything here is generated from fixed seeds via the package's own stream,
so fixtures never need to be checked in: rebuilding them yields identical
bytes on any platform. Three runnable toy networks cover the three site
kinds; the two large descriptors are shape-only (coverage accounting for
architectures whose weights this repo never materializes).
"""

from __future__ import annotations

import math

from .archive import ModelArchive
from .descriptor import ArchDescriptor, GqaMeta, PermutableSite
from .inference import LayerSpec, ToyNetwork
from .rng import SeededRng, derive_seed
from .tensor import Tensor, tensor

DEFAULT_SEEDS = {"mlp": 2001, "cnn": 2002, "gqa": 2003, "ss": 2004}


def _gauss(seed: int, label: str, shape, scale: float, dtype="float32") -> Tensor:
    rng = SeededRng(derive_seed(seed, label))
    vals = rng.gaussian_block(math.prod(shape)).reshape(shape)
    vals *= scale
    return tensor(vals, dtype)


def _uniform(seed: int, label: str, shape, lo: float, hi: float, dtype="float32") -> Tensor:
    rng = SeededRng(derive_seed(seed, label))
    vals = lo + (hi - lo) * rng.uniform_block(math.prod(shape)).reshape(shape)
    return tensor(vals, dtype)


def _site(site_id: str, kind: str, n: int, producers, consumer: LayerSpec) -> PermutableSite:
    """Site whose n units are the rows (axis 0) of every param of the
    `producers` layers, in their order, and the columns (axis 1) of the
    `consumer` layer's weight."""
    return PermutableSite(
        site_id, kind, n,
        produce=tuple((name, 0) for layer in producers for name in layer.params.values()),
        consume=((consumer.params["weight"], 1),),
    )


def _dense_chain(archive: ModelArchive, dims) -> tuple[ArchDescriptor, ToyNetwork]:
    """Descriptor and relu-separated net of the dense chain fc1..fcK, fc{i}
    mapping dims[i-1] -> dims[i]: site h{i} joins fc{i}'s rows, and its bias
    wherever the archive has one, to fc{i+1}'s columns."""
    dense = []
    for i in range(1, len(dims)):
        params = {"weight": f"fc{i}.weight", "bias": f"fc{i}.bias"}
        dense.append(LayerSpec("dense", {r: t for r, t in params.items() if t in archive.tensors}))
    sites = tuple(
        _site(f"h{i}", "fc_pair", dims[i], [dense[i - 1]], dense[i]) for i in range(1, len(dense))
    )
    layers = [dense[0]]
    for layer in dense[1:]:
        layers += [LayerSpec("relu"), layer]
    net = ToyNetwork(tuple(layers), "vector", (dims[0],))
    return ArchDescriptor(sites=sites, total_params=archive.param_count), net


# ------------------------------------------------------------- toy mlp

def toy_mlp(seed: int = DEFAULT_SEEDS["mlp"]):
    """Four dense layers 8 -> 16 -> 12 -> 6 -> 4; final layer bias-free.

    Every tensor belongs to some site, so full-schedule coverage is exactly
    1.0 (450 parameters).
    """
    dims = [8, 16, 12, 6, 4]
    tensors: dict[str, Tensor] = {}
    for i in range(4):
        fan_in, fan_out = dims[i], dims[i + 1]
        tensors[f"fc{i + 1}.weight"] = _gauss(
            seed, f"init/fc{i + 1}.weight", (fan_out, fan_in), fan_in ** -0.5
        )
        if i < 3:
            tensors[f"fc{i + 1}.bias"] = _gauss(
                seed, f"init/fc{i + 1}.bias", (fan_out,), 0.05
            )
    archive = ModelArchive(tensors, {"fixture": "toy-mlp"})
    return archive, *_dense_chain(archive, dims)


# ------------------------------------------------------------- toy cnn

def toy_cnn(seed: int = DEFAULT_SEEDS["cnn"]):
    """conv(6)+bn -> conv(8)+bn -> maxpool -> conv(8) -> global avg -> dense(4).

    Exercises channel permutation across batchnorm (all four running
    vectors move) and across global pooling into a bias-free classifier,
    so full coverage is again exactly 1.0.
    """
    tensors: dict[str, Tensor] = {}

    def conv(name: str, c_out: int, c_in: int) -> LayerSpec:
        params = {"weight": f"{name}.weight", "bias": f"{name}.bias"}
        tensors[params["weight"]] = _gauss(
            seed, f"init/{name}.weight", (c_out, c_in, 3, 3), (c_in * 9) ** -0.5
        )
        tensors[params["bias"]] = _gauss(seed, f"init/{name}.bias", (c_out,), 0.05)
        return LayerSpec("conv2d", params, {"padding": 1})

    def bn(name: str, c: int) -> LayerSpec:
        params = {r: f"{name}.{r}" for r in ("gamma", "beta", "running_mean", "running_var")}
        tensors[params["gamma"]] = _uniform(seed, f"init/{name}.gamma", (c,), 0.8, 1.2)
        tensors[params["beta"]] = _gauss(seed, f"init/{name}.beta", (c,), 0.05)
        tensors[params["running_mean"]] = _gauss(seed, f"init/{name}.mean", (c,), 0.1)
        tensors[params["running_var"]] = _uniform(seed, f"init/{name}.var", (c,), 0.5, 1.5)
        return LayerSpec("batchnorm2d", params)

    conv1 = conv("conv1", 6, 3)
    bn1 = bn("bn1", 6)
    conv2 = conv("conv2", 8, 6)
    bn2 = bn("bn2", 8)
    conv3 = conv("conv3", 8, 8)
    tensors["fc.weight"] = _gauss(seed, "init/fc.weight", (4, 8), 8 ** -0.5)
    fc = LayerSpec("dense", {"weight": "fc.weight"})
    archive = ModelArchive(tensors, {"fixture": "toy-cnn"})
    sites = (
        _site("c1", "conv_block", 6, [conv1, bn1], conv2),
        _site("c2", "conv_block", 8, [conv2, bn2], conv3),
        _site("c3", "fc_pair", 8, [conv3], fc),
    )
    desc = ArchDescriptor(sites=sites, total_params=archive.param_count)
    relu = LayerSpec("relu")
    net = ToyNetwork(
        (
            conv1, bn1, relu,
            conv2, bn2, relu, LayerSpec("maxpool2d", hyper={"kernel": 2}),
            conv3, relu, LayerSpec("avgpool2d", hyper={"global": True}),
            fc,
        ),
        "image",
        (3, 8, 8),
    )
    return archive, desc, net


# ------------------------------------------------------------- toy gqa

def toy_gqa(seed: int = DEFAULT_SEEDS["gqa"]):
    """Tiny grouped-query attention block in float16.

    vocab 32, width 32, 8 query heads sharing 4 kv heads of dim 4, then a
    64-wide MLP. The attention site moves kv groups (query rows in blocks
    of 8, k/v rows in blocks of 4, output columns in blocks of 8).
    """
    d, vocab, hidden = 32, 32, 64
    tensors: dict[str, Tensor] = {}

    def t16(name: str, label: str, shape, scale: float) -> str:
        tensors[name] = _gauss(seed, f"init/{label}", shape, scale, "float16")
        return name

    def layernorm(i: int) -> LayerSpec:
        gamma = f"ln{i}.gamma"
        tensors[gamma] = _uniform(seed, f"init/ln{i}.g", (d,), 0.8, 1.2, "float16")
        beta = t16(f"ln{i}.beta", f"ln{i}.b", (d,), 0.05)
        return LayerSpec("layernorm", {"gamma": gamma, "beta": beta})

    emb = LayerSpec(
        "embedding-lookup", {"table": t16("emb.table", "emb", (vocab, d), 0.5)}, {"vocab": vocab}
    )
    ln1 = layernorm(1)
    attn = LayerSpec(
        "attention_gqa",
        {
            "wq": t16("attn.wq", "wq", (d, d), d ** -0.5),
            "wk": t16("attn.wk", "wk", (16, d), d ** -0.5),
            "wv": t16("attn.wv", "wv", (16, d), d ** -0.5),
            "wo": t16("attn.wo", "wo", (d, d), d ** -0.5),
        },
        {"h_q": 8, "h_kv": 4, "head_dim": 4, "causal": True},
    )
    ln2 = layernorm(2)
    up = LayerSpec("dense", {
        "weight": t16("mlp.w1", "w1", (hidden, d), d ** -0.5),
        "bias": t16("mlp.b1", "b1", (hidden,), 0.05),
    })
    down = LayerSpec("dense", {
        "weight": t16("mlp.w2", "w2", (d, hidden), hidden ** -0.5),
        "bias": t16("mlp.b2", "b2", (d,), 0.05),
    })
    ln3 = layernorm(3)
    head = LayerSpec("dense", {"weight": t16("head.weight", "head", (vocab, d), d ** -0.5)})
    archive = ModelArchive(tensors, {"fixture": "toy-gqa"})
    sites = (
        PermutableSite(
            "attn", "attn_gqa", 4,
            produce=(("attn.wq", 0), ("attn.wk", 0), ("attn.wv", 0)),
            consume=(("attn.wo", 1),),
            gqa=GqaMeta(h_q=8, h_kv=4, head_dim=4),
        ),
        _site("mlp", "fc_pair", hidden, [up], down),
    )
    desc = ArchDescriptor(sites=sites, total_params=archive.param_count)
    net = ToyNetwork((emb, ln1, attn, ln2, up, LayerSpec("relu"), down, ln3, head), "tokens", (6,))
    return archive, desc, net


# ------------------------------------------------------------- ss hosts

def ss_host(
    seed: int = DEFAULT_SEEDS["ss"],
    width: int = 512,
    layers: int = 4,
    weight_sigma: float = 1.0,
):
    """Bias-free dense chain used as the spread-spectrum carrier.

    Defaults give 4 * 512 * 512 = 2^20 iid N(0, sigma^2) parameters and
    three permutable hidden layers of n = 512. Every tensor sits in a site,
    so a full schedule covers fraction exactly 1.0.
    """
    tensors = {
        f"fc{i}.weight": _gauss(seed, f"init/fc{i}", (width, width), weight_sigma)
        for i in range(1, layers + 1)
    }
    archive = ModelArchive(tensors, {"fixture": f"ss-host-{width}x{layers}"})
    return archive, *_dense_chain(archive, [width] * (layers + 1))


# ------------------------------------------- reference descriptors (shape-only)

VGG11_TOTAL_PARAMS = 132_863_336
LLAMA32_1B_TOTAL_PARAMS = 1_498_482_688


def vgg11_descriptor() -> ArchDescriptor:
    """Shape-only descriptor for the classic 11-layer conv/dense stack.

    Seven conv channel sites and two hidden dense sites. The last conv
    layer's channel order feeds the flattened classifier through 7x7
    spatial blocks, so it is left out of the site list; its bias and the
    final logit bias are the only parameters no site touches (1,512 of
    132,863,336).
    """
    channels = [64, 128, 256, 256, 512, 512, 512, 512]
    ins = [3] + channels[:-1]
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (c_out, c_in) in enumerate(zip(channels, ins), start=1):
        shapes[f"features.conv{i}.weight"] = (c_out, c_in, 3, 3)
        shapes[f"features.conv{i}.bias"] = (c_out,)
    dense = [25088, 4096, 4096, 1000]
    for i in range(1, 4):
        shapes[f"classifier.fc{i}.weight"] = (dense[i], dense[i - 1])
        shapes[f"classifier.fc{i}.bias"] = (dense[i],)

    sites = [
        PermutableSite(
            f"conv{i}_out", "conv_block", channels[i - 1],
            produce=((f"features.conv{i}.weight", 0), (f"features.conv{i}.bias", 0)),
            consume=((f"features.conv{i + 1}.weight", 1),),
        )
        for i in range(1, 8)
    ]
    sites += [
        PermutableSite(
            f"fc{i}_out", "fc_pair", dense[i],
            produce=((f"classifier.fc{i}.weight", 0), (f"classifier.fc{i}.bias", 0)),
            consume=((f"classifier.fc{i + 1}.weight", 1),),
        )
        for i in (1, 2)
    ]
    return ArchDescriptor(
        sites=tuple(sites),
        total_params=VGG11_TOTAL_PARAMS,
        shapes=shapes,
        notes=(
            "Shape-only coverage descriptor. conv8's channels reach the first "
            "dense layer through 7x7 spatial blocks and are not listed as a "
            "site; conv8.bias and fc3.bias are untouchable."
        ),
    )


def llama32_1b_descriptor() -> ArchDescriptor:
    """Shape-only descriptor for a 16-layer, 2048-wide GQA transformer.

    Per block: one MLP hidden site (n=8192 over gate/up rows and down
    columns) and one attention entry covering the query/key projections,
    whose head-feature order can be shuffled without touching the value/
    output path. Residual-stream widths, embeddings, norms, v/o projections
    and the untied output head stay fixed, which is what pins coverage near
    59 percent.
    """
    d, n_layers, h_q, h_kv, head_dim, ff, vocab = 2048, 16, 32, 8, 64, 8192, 128256
    shapes: dict[str, tuple[int, ...]] = {
        "model.embed_tokens.weight": (vocab, d),
        "model.norm.weight": (d,),
        "lm_head.weight": (vocab, d),
    }
    sites: list[PermutableSite] = []
    for l in range(n_layers):
        p = f"model.layers.{l}"
        shapes[f"{p}.self_attn.q_proj.weight"] = (h_q * head_dim, d)
        shapes[f"{p}.self_attn.k_proj.weight"] = (h_kv * head_dim, d)
        shapes[f"{p}.self_attn.v_proj.weight"] = (h_kv * head_dim, d)
        shapes[f"{p}.self_attn.o_proj.weight"] = (d, h_q * head_dim)
        shapes[f"{p}.mlp.gate_proj.weight"] = (ff, d)
        shapes[f"{p}.mlp.up_proj.weight"] = (ff, d)
        shapes[f"{p}.mlp.down_proj.weight"] = (d, ff)
        shapes[f"{p}.input_layernorm.weight"] = (d,)
        shapes[f"{p}.post_attention_layernorm.weight"] = (d,)
        sites.append(
            PermutableSite(
                f"layer{l}_qk", "attn_gqa", h_kv,
                produce=(
                    (f"{p}.self_attn.q_proj.weight", 0),
                    (f"{p}.self_attn.k_proj.weight", 0),
                ),
                consume=(),
                gqa=GqaMeta(h_q=h_q, h_kv=h_kv, head_dim=head_dim),
            )
        )
        sites.append(
            PermutableSite(
                f"layer{l}_mlp", "fc_pair", ff,
                produce=(
                    (f"{p}.mlp.gate_proj.weight", 0),
                    (f"{p}.mlp.up_proj.weight", 0),
                ),
                consume=((f"{p}.mlp.down_proj.weight", 1),),
            )
        )
    return ArchDescriptor(
        sites=tuple(sites),
        total_params=LLAMA32_1B_TOTAL_PARAMS,
        shapes=shapes,
        notes=(
            "Shape-only coverage descriptor; no archive with these names ships "
            "here. Attention entries record the query/key tensors whose "
            "within-head feature order a sanitizer may shuffle while the "
            "value/output path stays fixed, so q/k count as movable and v/o "
            "do not."
        ),
    )
