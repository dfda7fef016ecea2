"""Minimal forward pass for the toy networks used to verify rewrites.

Storage may be float16 or float32; arithmetic always runs in float32 and
rounds to the storage dtype only when values are written back (which forward
never does). Networks are flat layer chains described by a JSON sidecar. The
`attention_gqa` layer kind uses the tokens-as-rows layout.

A layer kind is one `_LAYERS` entry: the param roles it requires, the ones
it may take, the hyper-parameters it requires, and its arithmetic.
`LayerSpec` checks a layer against its entry when the layer is built, and
`forward` runs every kind the same way.

Params are looked up by name (`name in archive`, `archive.read(name)`), so
the chain runs over an archive in memory or an `ArchiveReader` alike. `normalized_output_deviation`,
the check behind `sanitize --verify`, runs its probes layer-major and holds
one layer's params of one model at a time; `check_params` finds a net that
names a missing tensor from the archive's layout alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .archive import ArchiveReader, ModelArchive
from .errors import quote, read_json
from .rng import SeededRng, derive_seed

_EPS_DEFAULT = 1e-5

# integer hyper-parameters and their smallest legal value; each must also
# be below 2**63, so that it fits the int64 arrays built from it
_INT_HYPER_MIN = dict(kernel=1, stride=1, padding=0, h_q=1, h_kv=1, head_dim=1, vocab=1)


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    params: dict[str, str] = field(default_factory=dict)
    hyper: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _LAYERS:
            raise ValueError(f"unknown layer kind {quote(self.kind)}")
        roles, _, needs, _ = _LAYERS[self.kind]
        for role in roles:
            if not self.params.get(role):
                raise ValueError(f"layer {self.kind} lacks required param {role!r}")
        for key, low in _INT_HYPER_MIN.items():
            v = self.hyper.get(key, low)
            if not isinstance(v, int) or isinstance(v, bool) or not low <= v < 1 << 63:
                raise ValueError(f"layer {self.kind}: {key!r} must be an integer >= {low} "
                                 f"and below 2**63, got {quote(v)}")
        for need in needs:
            keys = need if isinstance(need, tuple) else (need,)
            if not any(self.hyper.get(key) for key in keys):
                raise ValueError(f"layer {self.kind} lacks required hyper "
                                 + " or ".join(repr(key) for key in keys))
        eps = self.hyper.get("eps", _EPS_DEFAULT)
        if not (isinstance(eps, (int, float)) and 0 < eps < 1):
            raise ValueError(f"layer {self.kind}: 'eps' must be a finite number in (0, 1), "
                             f"got {quote(eps)}")


@dataclass(frozen=True)
class ToyNetwork:
    """Layer chain plus a description of what the input looks like.

    input_kind is "vector", "image" (C,H,W) or "tokens" (int ids);
    input_shape are the trailing dims a sample must have.
    """

    layers: tuple[LayerSpec, ...]
    input_kind: str
    input_shape: tuple[int, ...]

    def __post_init__(self):
        if self.input_kind not in ("vector", "image", "tokens"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        if self.input_kind == "tokens" and len(self.input_shape) != 1:
            raise ValueError(f"a tokens input must be 1-d, got shape {quote(self.input_shape)}")
        if not all(type(s) is int and s >= 1 for s in self.input_shape) or (
                math.prod(self.input_shape) >= 1 << 63):
            raise ValueError(f"input shape entries must be integers >= 1 whose product is "
                             f"below 2**63, got {quote(self.input_shape)}")


def network_from_dict(doc: dict) -> ToyNetwork:
    """Build a network from sidecar JSON; a malformed sidecar raises ValueError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ValueError("net sidecar needs a 'layers' list")
    inp = doc.get("input")
    shape = inp.get("shape") if isinstance(inp, dict) else None
    if not isinstance(shape, list):
        raise ValueError("net sidecar needs an 'input' object with a list shape")
    layers = []
    for raw in doc["layers"]:
        if not isinstance(raw, dict):
            raise ValueError(f"net sidecar layer must be an object, got {quote(raw)}")
        params, hyper = raw.get("params", {}), raw.get("hyper", {})
        if not isinstance(params, dict) or not all(
            v is None or isinstance(v, str) for v in params.values()
        ):
            raise ValueError(f"layer {quote(raw.get('kind'))}: params must map to tensor names")
        if not isinstance(hyper, dict) or not all(
            isinstance(v, (int, float)) for v in hyper.values()
        ):
            raise ValueError(f"layer {quote(raw.get('kind'))}: hyper values must be numbers")
        layers.append(LayerSpec(kind=raw.get("kind"), params=dict(params), hyper=dict(hyper)))
    return ToyNetwork(layers=tuple(layers), input_kind=inp.get("kind"), input_shape=tuple(shape))


def network_to_dict(net: ToyNetwork) -> dict:
    return {
        "input": {"kind": net.input_kind, "shape": list(net.input_shape)},
        "layers": [
            {"kind": l.kind, "params": dict(l.params), "hyper": dict(l.hyper)}
            for l in net.layers
        ],
    }


def parse_network(text: str | bytes) -> ToyNetwork:
    return network_from_dict(read_json(text, "net sidecar"))


def load_network(path) -> ToyNetwork:
    with open(path, "rb") as fh:
        return parse_network(fh.read())


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax; rows sum to one along `axis`."""
    shifted = a - np.max(a, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _image(x, kind):
    """The (C, H, W) shape of `x`, the input of a `kind` layer."""
    if x.ndim != 3:
        raise ValueError(f"{kind} needs a (C, H, W) input, got shape {x.shape}")
    return x.shape


def _misfit(kind, role, w, x):
    """`w`, the `role` param of a `kind` layer, does not fit its input `x`."""
    return ValueError(f"{kind} {role!r} of shape {w.shape} does not fit an input of shape "
                      f"{x.shape}")


def _check_shape(kind, p, role, want):
    """Raise unless the `role` param of a `kind` layer has shape `want`."""
    if p[role].shape != want:
        raise ValueError(f"{kind} {role!r} needs shape {want}, got {p[role].shape}")


def _conv2d(x, p, hyper):
    w, stride, padding = p["weight"], hyper.get("stride", 1), hyper.get("padding", 0)
    c, h, width = _image(x, "conv2d")
    if w.ndim != 4:
        raise ValueError(f"conv2d 'weight' must be 4-d, got shape {w.shape}")
    k = w.shape[2]
    if w.shape[1] != c or w.shape[3] != k or k > min(h, width) + 2 * padding:
        raise _misfit("conv2d", "weight", w, x)
    if padding >= k:
        raise ValueError(f"conv2d 'padding' {padding} must be below the kernel size {k}")
    if "bias" in p:
        _check_shape("conv2d", p, "bias", w.shape[:1])
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    # windows: (C, H', W', k, k); w: (O, C, k, k) -> (O, H', W')
    out = np.tensordot(w, windows, axes=([1, 2, 3], [0, 3, 4]))
    if "bias" in p:
        out = out + p["bias"][:, None, None]
    return np.ascontiguousarray(out.astype(np.float32))


def _pool2d(x, hyper, reducer, kind):
    kernel = hyper["kernel"]
    stride = hyper.get("stride", kernel)
    c, h, w = _image(x, kind)
    if kernel > min(h, w):
        raise ValueError(f"{kind} 'kernel' {kernel} is larger than the {h}x{w} feature map")
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    windows = windows[:, : oh * stride : stride, : ow * stride : stride]
    return reducer(windows, axis=(3, 4))


def _attention_gqa(x, wq, wk, wv, wo, h_q, h_kv, head_dim, causal):
    t = x.shape[0]
    q = (x @ wq.T).reshape(t, h_q, head_dim)
    k = (x @ wk.T).reshape(t, h_kv, head_dim)
    v = (x @ wv.T).reshape(t, h_kv, head_dim)
    group = h_q // h_kv
    # query head h reads kv head h // group
    k_full = np.repeat(k, group, axis=1)
    v_full = np.repeat(v, group, axis=1)
    scores = np.einsum("thd,shd->hts", q, k_full) / np.float32(np.sqrt(head_dim))
    if causal:
        mask = np.triu(np.full((t, t), -np.inf, dtype=np.float32), k=1)
        scores = scores + mask[None, :, :]
    attn = softmax(scores, axis=-1)
    mixed = np.einsum("hts,shd->thd", attn, v_full).reshape(t, h_q * head_dim)
    return (mixed @ wo.T).astype(np.float32)


def _dense(x, p, hyper):
    w = p["weight"]
    if w.ndim != 2 or w.shape[1:] != x.shape[-1:]:
        raise _misfit("dense", "weight", w, x)
    if "bias" in p:
        _check_shape("dense", p, "bias", w.shape[:1])
    x = x @ w.T
    return x + p["bias"] if "bias" in p else x


def _batchnorm2d(x, p, hyper):
    channels = _image(x, "batchnorm2d")[:1]
    for role in p:
        _check_shape("batchnorm2d", p, role, channels)
    gamma, beta, mean, var = (
        p[role][:, None, None] for role in ("gamma", "beta", "running_mean", "running_var")
    )
    eps = np.float32(hyper.get("eps", _EPS_DEFAULT))
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


def _layernorm(x, p, hyper):
    for role in p:
        _check_shape("layernorm", p, role, x.shape[-1:])
    eps = np.float32(hyper.get("eps", _EPS_DEFAULT))
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return p["gamma"] * (x - mu) / np.sqrt(var + eps) + p["beta"]


def _embedding(x, p, hyper):
    table = p["table"]
    if x.dtype != np.int64:
        raise ValueError(f"embedding-lookup needs a tokens input, got {x.dtype} values")
    if table.ndim != 2:
        raise ValueError(f"embedding-lookup 'table' must be 2-d, got shape {table.shape}")
    rows = len(table)
    if hyper.get("vocab", rows) > rows:
        raise ValueError(f"embedding-lookup 'vocab' {hyper['vocab']} exceeds the {rows} rows "
                         f"of its 'table'")
    if np.any(x < 0) or np.any(x >= rows):
        raise ValueError(f"embedding-lookup token id out of range for its {rows}-row 'table'")
    return table[x]


def _avgpool2d(x, p, hyper):
    if not hyper.get("global"):
        return _pool2d(x, hyper, np.mean, "avgpool2d")
    _image(x, "avgpool2d")
    return x.mean(axis=(1, 2))


def _attention(x, p, h):
    if h["h_q"] % h["h_kv"]:
        raise ValueError(f"attention_gqa 'h_q' {h['h_q']} is not a multiple of 'h_kv' {h['h_kv']}")
    # wq, wk and wv hold one row per head dimension, wo one column
    for role, axis, key in (("wq", 0, "h_q"), ("wk", 0, "h_kv"), ("wv", 0, "h_kv"),
                            ("wo", 1, "h_q")):
        shape, want = p[role].shape, h[key] * h["head_dim"]
        if len(shape) != 2 or shape[axis] != want:
            raise ValueError(f"attention_gqa {role} needs {want} {('rows', 'columns')[axis]} "
                             f"({key!r} x 'head_dim'), got shape {shape}")
    if x.ndim != 2:
        raise ValueError(f"attention_gqa needs a (tokens, width) input, got shape {x.shape}")
    for role in ("wq", "wk", "wv"):
        if p[role].shape[1] != x.shape[1]:
            raise _misfit("attention_gqa", role, p[role], x)
    wq, wk, wv, wo = p["wq"], p["wk"], p["wv"], p["wo"]
    return _attention_gqa(x, wq, wk, wv, wo, h["h_q"], h["h_kv"], h["head_dim"], h.get("causal"))


# kind -> (required param roles, optional param roles, required hyper keys,
# (x, params, hyper) -> x); a tuple of hyper keys is met by any one of them
_LAYERS = {
    "dense": (("weight",), ("bias",), (), _dense),
    "conv2d": (("weight",), ("bias",), (), _conv2d),
    "batchnorm2d": (("gamma", "beta", "running_mean", "running_var"), (), (), _batchnorm2d),
    "relu": ((), (), (), lambda x, p, h: np.maximum(x, 0.0)),
    "maxpool2d": ((), (), ("kernel",), lambda x, p, h: _pool2d(x, h, np.max, "maxpool2d")),
    "avgpool2d": ((), (), (("kernel", "global"),), _avgpool2d),
    "attention_gqa": (("wq", "wk", "wv", "wo"), (), ("h_q", "h_kv", "head_dim"), _attention),
    "layernorm": (("gamma", "beta"), (), (), _layernorm),
    "embedding-lookup": (("table",), (), (), _embedding),
}


def _as_input(net: ToyNetwork, x) -> np.ndarray:
    """One sample as the first layer reads it, checked against the net's input shape."""
    x = np.asarray(x, dtype=np.int64 if net.input_kind == "tokens" else np.float32)
    k = len(net.input_shape)
    if k and x.shape[-k:] != net.input_shape:
        raise ValueError(f"input shape {x.shape} does not end with {net.input_shape}")
    return x


def _param_names(net: ToyNetwork, i: int, archive) -> dict[str, str]:
    """{role: tensor name} of layer i; raises if ``archive`` lacks one."""
    layer = net.layers[i]
    required, optional, _, _ = _LAYERS[layer.kind]
    names = {role: name for role in required + optional if (name := layer.params.get(role))}
    if lacking := {name for name in names.values() if name not in archive}:
        raise ValueError(f"layer {i} ({layer.kind}) names tensors the archive lacks: "
                         f"{quote(sorted(lacking))}")
    return names


def check_params(net: ToyNetwork, archive: ModelArchive | ArchiveReader) -> None:
    """Raise, as ``forward`` would, if a layer names a tensor ``archive``
    lacks; reads no tensor, so it may check a file from its header alone."""
    for i in range(len(net.layers)):
        _param_names(net, i, archive)


def _params(net: ToyNetwork, i: int, archive) -> dict[str, np.ndarray]:
    """Layer i's params in float32, read from ``archive`` now."""
    return {role: archive.read(name).f32() for role, name in _param_names(net, i, archive).items()}


def forward(net: ToyNetwork, archive: ModelArchive | ArchiveReader, x: np.ndarray) -> np.ndarray:
    """Run one sample through the chain in float32."""
    x = _as_input(net, x)
    for i, layer in enumerate(net.layers):
        x = _LAYERS[layer.kind][3](x, _params(net, i, archive), layer.hyper).astype(np.float32)
    return x


def normalized_output_deviation(
    net: ToyNetwork,
    a: ModelArchive | ArchiveReader,
    b: ModelArchive | ArchiveReader,
    inputs,
) -> float:
    """Largest per-probe |forward(a) - forward(b)| / max(1, |forward(a)|).

    Dividing by the probe's own output magnitude (floored at one) keeps a
    single tolerance meaningful for networks whose activations are far from
    unit scale, where float32 reassociation noise alone scales with the
    outputs; for unit-scale outputs it coincides with the absolute form.
    A NaN deviation on any probe makes the result NaN.

    The probes run layer-major: per layer, its params are read from ``a``
    (an archive or an ``ArchiveReader``), every probe goes through the
    layer, and the params are let go; then the same for ``b``. So one
    layer's weights of one side are held at a time. Each probe meets the
    same arithmetic as in ``forward``, one sample at a time.
    """
    first = [_as_input(net, x) for x in inputs]
    outs = [first, first]
    for i, layer in enumerate(net.layers):
        run = _LAYERS[layer.kind][3]
        for side, model in enumerate((a, b)):
            params = _params(net, i, model)
            outs[side] = [run(x, params, layer.hyper).astype(np.float32) for x in outs[side]]
            del params
    worst = 0.0
    for oa, ob in zip(*outs):
        scale = max(1.0, float(np.max(np.abs(oa))))
        # np.maximum keeps a NaN, where max() would drop it
        worst = float(np.maximum(worst, float(np.max(np.abs(oa - ob))) / scale))
    return worst


def random_inputs(net: ToyNetwork, count: int, seed: int):
    """Deterministic probe inputs matching the net's input contract."""
    out = []
    for i in range(count):
        rng = SeededRng(derive_seed(seed, f"probe/{i}"))
        if net.input_kind == "tokens":
            # vocab bound is the embedding table's first dim, checked at lookup
            ids = rng.bounded_block(np.full(net.input_shape, _vocab_hint(net), dtype=np.int64))
            out.append(ids.astype(np.int64))
        else:
            vals = rng.gaussian_block(math.prod(net.input_shape))
            out.append(vals.astype(np.float32).reshape(net.input_shape))
    return out


def _vocab_hint(net: ToyNetwork) -> int:
    for layer in net.layers:
        if layer.kind == "embedding-lookup":
            if v := layer.hyper.get("vocab"):
                return v
    raise ValueError("token inputs need an embedding-lookup layer with a vocab hint")
