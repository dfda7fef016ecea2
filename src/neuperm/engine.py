"""Schedule and apply function-preserving permutations over an archive.

One uniform random permutation per site, one derived seed per site. Every
ref of a site is rewritten with the same index array p
(out[..., i, ...] = in[..., p[i], ...]), which preserves the function: a
producer's axis-0 reorder is compensated by reordering each consumer's
contraction axis with the same p.

A schedule is applied as one rewrite per tensor (``schedule_rewrite``). A
tensor's moves compose into one element index per axis, and the rewrite
yields the moved tensor as a run of row blocks of about ``_BLOCK_BYTES``
each: a block gathers its rows along axis 0, then each other moved axis
within the block. No whole rewritten tensor, and no intermediate of one,
ever exists, so ``sanitize`` writes each block as it comes;
``apply_schedule`` assembles the blocks of every tensor in memory.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .archive import ArchiveReader, ModelArchive
from .descriptor import ArchDescriptor, PermutableSite, validate_descriptor
from .errors import DescriptorError
from .rng import SeededRng, derive_seed
# permute_axis_blocks is unused here but stays importable as
# neuperm.engine.permute_axis_blocks, a name perfbench/tracer.py wraps
from .tensor import Tensor, fisher_yates, invert, is_permutation, permute_axis_blocks  # noqa: F401


#: a rewrite of one tensor, given its name: what a disruptor does to each
#: tensor, as a run of row blocks. Blocks are arrays of the tensor's dtype and
#: trailing shape, handed over to the caller, whose rows in order are the
#: rewritten tensor; one block may be the whole tensor (0-d included).
Rewrite = Callable[[str, Tensor], Iterable[np.ndarray]]

#: bytes of the row blocks a moved tensor is rewritten in; a slice larger
#: than this is a block of its own
_BLOCK_BYTES = 1 << 20


def site_seed(master_seed: int, site_id: str) -> int:
    return derive_seed(master_seed, f"site/{site_id}")


@dataclass(frozen=True)
class PermutationSchedule:
    """Which sites get permuted, and by what."""

    master_seed: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def inverse(self) -> "PermutationSchedule":
        return PermutationSchedule(
            self.master_seed, {sid: invert(p) for sid, p in self.entries.items()}
        )


@dataclass(frozen=True)
class CoverageReport:
    """How much of the model any rewrite touched.

    changed_params counts every element of every tensor named by an applied
    site, each element once (identity permutations still count: coverage
    measures permutable positions, not value changes).
    """

    total_params: int
    changed_params: int
    applied_sites: tuple[str, ...]

    @property
    def fraction(self) -> float:
        if self.total_params == 0:
            return 0.0
        return self.changed_params / self.total_params

    @property
    def percent(self) -> float:
        """Fraction at tabular display precision (two decimals)."""
        return round(self.fraction * 100.0, 2)


def _coverage(
    desc: ArchDescriptor, sizes: dict[str, int], applied: list[PermutableSite]
) -> CoverageReport:
    touched = set().union(*(site.tensor_names() for site in applied))
    return CoverageReport(
        total_params=desc.total_params,
        changed_params=sum(sizes[n] for n in touched),
        applied_sites=tuple(s.site_id for s in applied),
    )


def make_schedule(
    desc: ArchDescriptor,
    master_seed: int,
    fraction_target: float | None = None,
    archive: ModelArchive | ArchiveReader | None = None,
) -> PermutationSchedule:
    """Draw one permutation per selected site.

    fraction_target None (or 1.0) selects every site. A partial target picks
    sites greedily by parameter count, largest first (site_id breaks ties),
    until the covered fraction reaches the target; only that path needs
    shapes, so only it validates (against the archive or the shapes map).
    """
    if fraction_target is None or fraction_target >= 1.0:
        selected = list(desc.sites)
    elif fraction_target < 0.0:
        raise ValueError("fraction_target must be in [0, 1]")
    else:
        selected = _select_sites(desc, validate_descriptor(desc, archive), fraction_target)
    entries: dict[str, np.ndarray] = {}
    for site in selected:
        rng = SeededRng(site_seed(master_seed, site.site_id))
        entries[site.site_id] = fisher_yates(site.n, rng)
    return PermutationSchedule(master_seed=master_seed, entries=entries)


def _select_sites(
    desc: ArchDescriptor, sizes: dict[str, int], fraction_target: float
) -> list[PermutableSite]:
    site_sizes = {s.site_id: sum(sizes[n] for n in s.tensor_names()) for s in desc.sites}
    order = sorted(desc.sites, key=lambda s: (-site_sizes[s.site_id], s.site_id))
    chosen: list[PermutableSite] = []
    touched: set[str] = set()
    covered = 0
    for site in order:
        if desc.total_params and covered / desc.total_params >= fraction_target:
            break
        chosen.append(site)
        for name in site.tensor_names() - touched:
            touched.add(name)
            covered += sizes[name]
    # keep descriptor order for deterministic application
    chosen_ids = {s.site_id for s in chosen}
    return [s for s in desc.sites if s.site_id in chosen_ids]


def _axis_index(extent: int, moves: list[np.ndarray]) -> np.ndarray:
    """One element index along an axis of ``extent`` for the block moves
    ``moves`` made in turn: gathering with it gives the bytes of
    ``permute_axis_blocks`` called once per move."""
    index = np.arange(extent, dtype=np.int64)
    for p in moves:
        width = extent // len(p)
        index = index[(p[:, None] * width + np.arange(width)).ravel()]
    return index


def _row_blocks(t: Tensor, index: dict[int, np.ndarray]) -> Iterator[np.ndarray]:
    """``t`` gathered by ``index`` ({axis: element index}) in row blocks:
    each block takes its rows along axis 0, then every other axis within
    itself."""
    data = t.data
    rows = index.get(0)
    others = [(axis, idx) for axis, idx in sorted(index.items()) if axis]
    step = max(1, _BLOCK_BYTES // max(1, data.itemsize * math.prod(data.shape[1:])))
    for start in range(0, len(data), step):
        if rows is None:
            block = data[start : start + step]
        else:
            block = np.take(data, rows[start : start + step], axis=0)
        for axis, idx in others:
            block = np.take(block, idx, axis=axis)
        yield block


def schedule_rewrite(
    archive: ModelArchive | ArchiveReader, desc: ArchDescriptor, schedule: PermutationSchedule
) -> tuple[Rewrite, CoverageReport]:
    """The schedule as one rewrite per tensor, ``rewrite(name, tensor)``,
    and its coverage report. ``archive`` (an archive or an ``ArchiveReader``)
    supplies only the layout the descriptor is checked against.

    A tensor takes the moves of every ref that names it, in descriptor
    order, composed into one element index per axis (a kv-group move spans
    its group's width), which gives the bytes of rewriting site by site. A
    moved tensor comes out in row blocks; a tensor no scheduled site names
    passes through as one block, itself.
    """
    sizes = validate_descriptor(desc, archive)
    layout = archive.layout
    moves: dict[str, dict[int, list[np.ndarray]]] = {}
    applied: list[PermutableSite] = []
    for site in desc.sites:
        p = schedule.entries.get(site.site_id)
        if p is None:
            continue
        if not is_permutation(p, site.n):
            raise ValueError(
                f"schedule entry for {site.site_id!r} is not a permutation of {site.n}"
            )
        applied.append(site)
        for name, axis in site.refs:
            moves.setdefault(name, {}).setdefault(axis, []).append(np.asarray(p, dtype=np.int64))
    index = {
        name: {axis: _axis_index(layout[name].shape[axis], ps) for axis, ps in axes.items()}
        for name, axes in moves.items()
    }

    def rewrite(name: str, t: Tensor) -> Iterable[np.ndarray]:
        if name not in index:
            return (t.data,)
        return _row_blocks(t, index[name])

    return rewrite, _coverage(desc, sizes, applied)


def apply_schedule(
    archive: ModelArchive, desc: ArchDescriptor, schedule: PermutationSchedule
) -> tuple[ModelArchive, CoverageReport]:
    """Rewrite the archive under the schedule. Unscheduled tensors pass through."""
    rewrite, coverage = schedule_rewrite(archive, desc, schedule)
    return archive.map(rewrite), coverage


def count_changed_fraction(
    desc: ArchDescriptor,
    site_ids: tuple[str, ...] | None = None,
    archive: ModelArchive | None = None,
) -> CoverageReport:
    """Coverage accounting without touching any weights.

    Validates against the archive's shapes or the descriptor's own shapes
    map, so it also serves architectures whose archives are never materialized.
    """
    sizes = validate_descriptor(desc, archive)
    if site_ids is None:
        applied = list(desc.sites)
    else:
        wanted = set(site_ids)
        unknown = wanted - {s.site_id for s in desc.sites}
        if unknown:
            raise DescriptorError(f"unknown site ids {sorted(unknown)}")
        applied = [s for s in desc.sites if s.site_id in wanted]
    return _coverage(desc, sizes, applied)
