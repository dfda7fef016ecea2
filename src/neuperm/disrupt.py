"""Sanitization passes that damage hidden payloads.

Three families, one dispatcher:

* ``noise:sigma``   — add iid Gaussian noise to every parameter,
* ``prune:ratio``   — zero the smallest-magnitude fraction of each tensor,
* ``neuperm[:frac]``— function-preserving channel permutations driven by an
  architecture descriptor; `frac` asks the scheduler to cover at least that
  fraction of parameters (default: every permutable site).

Noise and pruning change what the model computes; the permutation pass does
not, which is the whole point of preferring it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .archive import ModelArchive
from .descriptor import ArchDescriptor
from .engine import CoverageReport, apply_schedule, make_schedule
from .rng import SeededRng, derive_seed
from .tensor import Tensor

_KINDS = ("none", "noise", "prune", "neuperm")


@dataclass(frozen=True)
class DisruptorConfig:
    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown disruptor kind {self.kind!r}")
        if self.kind == "noise" and self.value < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.kind == "prune" and not 0.0 <= self.value <= 1.0:
            raise ValueError("prune ratio must lie in [0, 1]")
        if self.kind == "neuperm" and not 0.0 < self.value <= 1.0:
            raise ValueError("coverage fraction must lie in (0, 1]")

    @property
    def spec(self) -> str:
        if self.kind == "none":
            return "none"
        return f"{self.kind}:{self.value:g}"


def parse_disruptor(spec: str) -> DisruptorConfig:
    """Parse a spec string like "none", "noise:0.001", "prune:0.05",
    "neuperm" or "neuperm:0.6"."""
    spec = spec.strip()
    if spec == "none":
        return DisruptorConfig("none")
    if spec == "neuperm":
        return DisruptorConfig("neuperm", 1.0)
    kind, sep, arg = spec.partition(":")
    if not sep or kind not in ("noise", "prune", "neuperm"):
        raise ValueError(f"unknown disruptor spec {spec!r}")
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"bad numeric argument in disruptor spec {spec!r}") from None
    return DisruptorConfig(kind, value)


def add_gaussian_noise(archive: ModelArchive, sigma: float, seed: int) -> ModelArchive:
    """w' = w + sigma * g, g ~ N(0,1), per-tensor substreams keyed by name."""
    updates = {}
    for name in sorted(archive.tensors):
        t = archive.tensors[name]
        rng = SeededRng(derive_seed(seed, f"noise/{name}"))
        g = rng.gaussian_block(t.size).astype(np.float32).reshape(t.shape)
        vals = t.f32() + np.float32(sigma) * g
        updates[name] = Tensor.adopt(vals.astype(t.dtype, copy=False))
    return archive.replace(updates)


def prune_magnitude(archive: ModelArchive, ratio: float) -> ModelArchive:
    """Zero floor(ratio * size) smallest-|w| entries of each tensor.

    Ties break toward the earlier flat index (stable sort), so the result
    is fully deterministic.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("prune ratio must lie in [0, 1]")
    updates = {}
    for name in sorted(archive.tensors):
        t = archive.tensors[name]
        k = math.floor(ratio * t.size)
        if k == 0:
            continue
        flat = t.data.copy().ravel()
        order = np.argsort(np.abs(flat), kind="stable")
        flat[order[:k]] = flat.dtype.type(0)
        updates[name] = Tensor.adopt(flat.reshape(t.shape))
    return archive.replace(updates)


def apply_disruptor(
    archive: ModelArchive,
    config: DisruptorConfig,
    *,
    seed: int = 0,
    descriptor: ArchDescriptor | None = None,
) -> tuple[ModelArchive, CoverageReport | None]:
    """Run one disruptor; returns the new archive and, for the permutation
    pass, its coverage report (None for the others)."""
    if config.kind == "none":
        return archive, None
    if config.kind == "noise":
        return add_gaussian_noise(archive, config.value, seed), None
    if config.kind == "prune":
        return prune_magnitude(archive, config.value), None
    if descriptor is None:
        raise ValueError("the permutation pass needs an architecture descriptor")
    target = None if config.value >= 1.0 else config.value
    schedule = make_schedule(descriptor, seed, fraction_target=target, archive=archive)
    return apply_schedule(archive, descriptor, schedule)
