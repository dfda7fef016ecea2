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


def _dense_chain(archive: ModelArchive, dims) -> tuple[ArchDescriptor, ToyNetwork]:
    """Descriptor and relu-separated net of the dense chain fc1..fcK, fc{i}
    mapping dims[i-1] -> dims[i]: site h{i} joins fc{i}'s rows, and its bias
    wherever the archive has one, to fc{i+1}'s columns."""
    k = len(dims) - 1

    def params(i: int) -> dict[str, str]:
        bias = f"fc{i}.bias"
        return {"weight": f"fc{i}.weight", **({"bias": bias} if bias in archive.tensors else {})}

    sites = tuple(
        PermutableSite(
            f"h{i}", "fc_pair", dims[i],
            produce=tuple((name, 0) for name in params(i).values()),
            consume=((f"fc{i + 1}.weight", 1),),
        )
        for i in range(1, k)
    )
    layers = [LayerSpec("dense", params(1))]
    for i in range(2, k + 1):
        layers += [LayerSpec("relu"), LayerSpec("dense", params(i))]
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

    def conv(name: str, c_out: int, c_in: int):
        tensors[f"{name}.weight"] = _gauss(
            seed, f"init/{name}.weight", (c_out, c_in, 3, 3), (c_in * 9) ** -0.5
        )
        tensors[f"{name}.bias"] = _gauss(seed, f"init/{name}.bias", (c_out,), 0.05)

    def bn(name: str, c: int):
        tensors[f"{name}.gamma"] = _uniform(seed, f"init/{name}.gamma", (c,), 0.8, 1.2)
        tensors[f"{name}.beta"] = _gauss(seed, f"init/{name}.beta", (c,), 0.05)
        tensors[f"{name}.running_mean"] = _gauss(seed, f"init/{name}.mean", (c,), 0.1)
        tensors[f"{name}.running_var"] = _uniform(seed, f"init/{name}.var", (c,), 0.5, 1.5)

    conv("conv1", 6, 3)
    bn("bn1", 6)
    conv("conv2", 8, 6)
    bn("bn2", 8)
    conv("conv3", 8, 8)
    tensors["fc.weight"] = _gauss(seed, "init/fc.weight", (4, 8), 8 ** -0.5)
    archive = ModelArchive(tensors, {"fixture": "toy-cnn"})

    def bn_refs(name: str):
        return tuple((f"{name}.{f}", 0) for f in ("gamma", "beta", "running_mean", "running_var"))

    sites = (
        PermutableSite(
            "c1", "conv_block", 6,
            produce=(("conv1.weight", 0), ("conv1.bias", 0)) + bn_refs("bn1"),
            consume=(("conv2.weight", 1),),
        ),
        PermutableSite(
            "c2", "conv_block", 8,
            produce=(("conv2.weight", 0), ("conv2.bias", 0)) + bn_refs("bn2"),
            consume=(("conv3.weight", 1),),
        ),
        PermutableSite(
            "c3", "fc_pair", 8,
            produce=(("conv3.weight", 0), ("conv3.bias", 0)),
            consume=(("fc.weight", 1),),
        ),
    )
    desc = ArchDescriptor(sites=sites, total_params=archive.param_count)
    net = ToyNetwork(
        (
            LayerSpec("conv2d", {"weight": "conv1.weight", "bias": "conv1.bias"}, {"padding": 1}),
            LayerSpec("batchnorm2d", {
                "gamma": "bn1.gamma", "beta": "bn1.beta",
                "running_mean": "bn1.running_mean", "running_var": "bn1.running_var",
            }),
            LayerSpec("relu"),
            LayerSpec("conv2d", {"weight": "conv2.weight", "bias": "conv2.bias"}, {"padding": 1}),
            LayerSpec("batchnorm2d", {
                "gamma": "bn2.gamma", "beta": "bn2.beta",
                "running_mean": "bn2.running_mean", "running_var": "bn2.running_var",
            }),
            LayerSpec("relu"),
            LayerSpec("maxpool2d", hyper={"kernel": 2}),
            LayerSpec("conv2d", {"weight": "conv3.weight", "bias": "conv3.bias"}, {"padding": 1}),
            LayerSpec("relu"),
            LayerSpec("avgpool2d", hyper={"global": True}),
            LayerSpec("dense", {"weight": "fc.weight"}),
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
    t16 = lambda label, shape, scale: _gauss(seed, label, shape, scale, "float16")
    tensors = {
        "emb.table": t16("init/emb", (vocab, d), 0.5),
        "ln1.gamma": _uniform(seed, "init/ln1.g", (d,), 0.8, 1.2, "float16"),
        "ln1.beta": t16("init/ln1.b", (d,), 0.05),
        "attn.wq": t16("init/wq", (d, d), d ** -0.5),
        "attn.wk": t16("init/wk", (16, d), d ** -0.5),
        "attn.wv": t16("init/wv", (16, d), d ** -0.5),
        "attn.wo": t16("init/wo", (d, d), d ** -0.5),
        "ln2.gamma": _uniform(seed, "init/ln2.g", (d,), 0.8, 1.2, "float16"),
        "ln2.beta": t16("init/ln2.b", (d,), 0.05),
        "mlp.w1": t16("init/w1", (hidden, d), d ** -0.5),
        "mlp.b1": t16("init/b1", (hidden,), 0.05),
        "mlp.w2": t16("init/w2", (d, hidden), hidden ** -0.5),
        "mlp.b2": t16("init/b2", (d,), 0.05),
        "ln3.gamma": _uniform(seed, "init/ln3.g", (d,), 0.8, 1.2, "float16"),
        "ln3.beta": t16("init/ln3.b", (d,), 0.05),
        "head.weight": t16("init/head", (vocab, d), d ** -0.5),
    }
    archive = ModelArchive(tensors, {"fixture": "toy-gqa"})
    sites = (
        PermutableSite(
            "attn", "attn_gqa", 4,
            produce=(("attn.wq", 0), ("attn.wk", 0), ("attn.wv", 0)),
            consume=(("attn.wo", 1),),
            gqa=GqaMeta(h_q=8, h_kv=4, head_dim=4),
        ),
        PermutableSite(
            "mlp", "fc_pair", hidden,
            produce=(("mlp.w1", 0), ("mlp.b1", 0)),
            consume=(("mlp.w2", 1),),
        ),
    )
    desc = ArchDescriptor(sites=sites, total_params=archive.param_count)
    net = ToyNetwork(
        (
            LayerSpec("embedding-lookup", {"table": "emb.table"}, {"vocab": vocab}),
            LayerSpec("layernorm", {"gamma": "ln1.gamma", "beta": "ln1.beta"}),
            LayerSpec(
                "attention_gqa",
                {"wq": "attn.wq", "wk": "attn.wk", "wv": "attn.wv", "wo": "attn.wo"},
                {"h_q": 8, "h_kv": 4, "head_dim": 4, "causal": True},
            ),
            LayerSpec("layernorm", {"gamma": "ln2.gamma", "beta": "ln2.beta"}),
            LayerSpec("dense", {"weight": "mlp.w1", "bias": "mlp.b1"}),
            LayerSpec("relu"),
            LayerSpec("dense", {"weight": "mlp.w2", "bias": "mlp.b2"}),
            LayerSpec("layernorm", {"gamma": "ln3.gamma", "beta": "ln3.beta"}),
            LayerSpec("dense", {"weight": "head.weight"}),
        ),
        "tokens",
        (6,),
    )
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
    shapes["classifier.fc1.weight"] = (4096, 25088)
    shapes["classifier.fc1.bias"] = (4096,)
    shapes["classifier.fc2.weight"] = (4096, 4096)
    shapes["classifier.fc2.bias"] = (4096,)
    shapes["classifier.fc3.weight"] = (1000, 4096)
    shapes["classifier.fc3.bias"] = (1000,)

    sites = [
        PermutableSite(
            f"conv{i}_out", "conv_block", channels[i - 1],
            produce=((f"features.conv{i}.weight", 0), (f"features.conv{i}.bias", 0)),
            consume=((f"features.conv{i + 1}.weight", 1),),
        )
        for i in range(1, 8)
    ]
    sites.append(
        PermutableSite(
            "fc1_out", "fc_pair", 4096,
            produce=(("classifier.fc1.weight", 0), ("classifier.fc1.bias", 0)),
            consume=(("classifier.fc2.weight", 1),),
        )
    )
    sites.append(
        PermutableSite(
            "fc2_out", "fc_pair", 4096,
            produce=(("classifier.fc2.weight", 0), ("classifier.fc2.bias", 0)),
            consume=(("classifier.fc3.weight", 1),),
        )
    )
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
