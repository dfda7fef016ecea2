"""Sanitization passes that damage hidden payloads.

Three families, one dispatcher:

* ``noise:sigma``   — add iid Gaussian noise to every parameter,
* ``prune:ratio``   — zero the smallest-magnitude fraction of each tensor,
* ``neuperm[:frac]``— function-preserving channel permutations driven by an
  architecture descriptor; `frac` asks the scheduler to cover at least that
  fraction of parameters (default: every permutable site).

Noise and pruning change what the model computes; the permutation pass does
not, which is the whole point of preferring it.

Each disruptor is one rewrite per tensor (``tensor_rewrite``), which yields
the rewritten tensor as row blocks: the permutation pass in blocks of about
1 MiB, the others as one block. ``apply_disruptor`` maps it over an archive,
lazily over a reader; ``evaluate`` runs each variant's rewrite on each
tensor it reads, and ``sanitize`` streams it over a file one tensor at a
time, writing each block as it comes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .archive import ArchiveReader, ModelArchive
from .descriptor import ArchDescriptor
# apply_schedule is unused here but stays importable as neuperm.disrupt.apply_schedule,
# a name perfbench/tracer.py wraps
from .engine import (  # noqa: F401
    CoverageReport, Rewrite, apply_schedule, make_schedule, schedule_rewrite,
)
from .errors import split_spec
from .rng import SeededRng, derive_seed
from .tensor import Tensor

#: kind -> (value type, default), as errors.split_spec reads them
_KINDS = {"none": (None, 0.0), "noise": (float, None), "prune": (float, None),
          "neuperm": (float, 1.0)}


@dataclass(frozen=True)
class DisruptorConfig:
    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown disruptor kind {self.kind!r}")
        if self.kind == "noise" and not 0.0 <= self.value < math.inf:
            raise ValueError("noise sigma must be finite and >= 0")
        if self.kind == "prune" and not 0.0 <= self.value <= 1.0:
            raise ValueError("prune ratio must lie in [0, 1]")
        if self.kind == "neuperm" and not 0.0 < self.value <= 1.0:
            raise ValueError("coverage fraction must lie in (0, 1]")

    @property
    def spec(self) -> str:
        if self.kind == "none":
            return "none"
        return f"{self.kind}:{self.value:g}"

    @property
    def stochastic(self) -> bool:
        """Whether the pass draws from its seed, so each seed gives a new variant."""
        return self.kind in ("noise", "neuperm")


def parse_disruptor(spec: str) -> DisruptorConfig:
    """Parse a spec string like "none", "noise:0.001", "prune:0.05",
    "neuperm" or "neuperm:0.6"."""
    return DisruptorConfig(*split_spec(spec, _KINDS, "disruptor spec"))


def _noise(sigma: float, seed: int, name: str, t: Tensor) -> tuple[np.ndarray]:
    """w' = w + sigma * g, g ~ N(0,1) from the substream keyed by ``name``;
    one block."""
    rng = SeededRng(derive_seed(seed, f"noise/{name}"))
    g = rng.gaussian_block(t.size).astype(np.float32).reshape(t.shape)
    vals = t.f32() + np.float32(sigma) * g
    return (vals.astype(t.dtype, copy=False),)


def _prune(ratio: float, name: str, t: Tensor) -> tuple[np.ndarray]:
    """Zero the floor(ratio * size) smallest-|w| entries (see
    prune_magnitude); one block."""
    k = math.floor(ratio * t.size)
    if k == 0:
        return (t.data,)
    flat = t.data.copy().ravel()
    mag = np.abs(flat)
    kth = np.partition(mag, k - 1)[k - 1]
    if np.isnan(kth):  # NaN ranks after every number, which are all below it
        ties = np.isnan(mag)
        below = ~ties
    else:
        below, ties = mag < kth, mag == kth
    flat[below] = 0
    flat[np.flatnonzero(ties)[: k - np.count_nonzero(below)]] = 0
    return (flat.reshape(t.shape),)


def add_gaussian_noise(archive: ModelArchive, sigma: float, seed: int) -> ModelArchive:
    """w' = w + sigma * g, g ~ N(0,1), per-tensor substreams keyed by name."""
    return archive.map(functools.partial(_noise, sigma, seed))


def prune_magnitude(archive: ModelArchive, ratio: float) -> ModelArchive:
    """Zero floor(ratio * size) smallest-|w| entries of each tensor.

    Ties break toward the earlier flat index and NaN magnitudes rank last,
    as in a stable sort of |w|, so the result is fully deterministic. One
    partition finds the k-th smallest magnitude; every entry below it is
    zeroed, then the first of its ties in flat order until k are.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("prune ratio must lie in [0, 1]")
    return archive.map(functools.partial(_prune, ratio))


def tensor_rewrite(
    config: DisruptorConfig,
    archive: ModelArchive | ArchiveReader,
    *,
    seed: int = 0,
    descriptor: ArchDescriptor | None = None,
) -> tuple[Rewrite, CoverageReport | None]:
    """One disruptor as one rewrite per tensor, ``rewrite(name, tensor)``,
    which yields the rewritten tensor as row blocks (see ``engine.Rewrite``),
    plus, for the permutation pass, its coverage report (None for the
    others). Each tensor's rewrite depends only on its name and bytes, so
    it may run on each tensor in turn as a file is streamed. ``archive`` (an
    archive or an ``ArchiveReader``) supplies the layout the permutation
    pass draws its schedule for; no tensor is read here.
    """
    if config.kind == "none":
        return (lambda name, t: (t.data,)), None
    if config.kind == "noise":
        return functools.partial(_noise, config.value, seed), None
    if config.kind == "prune":
        return functools.partial(_prune, config.value), None
    if descriptor is None:
        raise ValueError("the permutation pass needs an architecture descriptor")
    schedule = make_schedule(descriptor, seed, fraction_target=config.value, archive=archive)
    return schedule_rewrite(archive, descriptor, schedule)


def apply_disruptor(
    archive: ModelArchive | ArchiveReader,
    config: DisruptorConfig,
    *,
    seed: int = 0,
    descriptor: ArchDescriptor | None = None,
):
    """``archive.map`` of one disruptor's ``tensor_rewrite`` (a lazy view
    over a reader), and, for the permutation pass, its coverage report
    (None for the others)."""
    rewrite, coverage = tensor_rewrite(config, archive, seed=seed, descriptor=descriptor)
    return archive.map(rewrite), coverage
