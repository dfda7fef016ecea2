"""Architecture descriptors: which tensor axes may be permuted together.

A descriptor lists permutation sites. Each site owns one hidden-unit (or
kv-group) index space of size n: `produce` refs are the tensor axes that
emit those units, `consume` refs the axes that read them. Applying one
permutation to every ref of a site preserves the network function; that is
the descriptor author's promise (residual connections being the classic way
to break it).

An `attn_gqa` site's n is h_kv, and its refs are read by position: the
first `produce` ref is the q rows and every `consume` ref the o columns,
both in group-width blocks ((h_q/h_kv)*head_dim); the other `produce`
refs are the k and v rows, in head_dim blocks.

Descriptors normally validate against the archive they describe. A
descriptor may instead embed a `shapes` map so coverage accounting works for
architectures whose weights we never materialize.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .archive import ModelArchive
from .errors import DescriptorError

SITE_KINDS = ("fc_pair", "conv_block", "attn_gqa")

Ref = tuple[str, int]


@dataclass(frozen=True)
class GqaMeta:
    h_q: int
    h_kv: int
    head_dim: int

    def __post_init__(self):
        if self.h_q < 1 or self.h_kv < 1 or self.head_dim < 1:
            raise DescriptorError("gqa fields must be positive")
        if self.h_q % self.h_kv != 0:
            raise DescriptorError(
                f"h_q={self.h_q} must be a multiple of h_kv={self.h_kv}"
            )

    @property
    def group_width(self) -> int:
        """Query rows per kv group."""
        return (self.h_q // self.h_kv) * self.head_dim


@dataclass(frozen=True)
class PermutableSite:
    site_id: str
    kind: str
    n: int
    produce: tuple[Ref, ...]
    consume: tuple[Ref, ...]
    gqa: GqaMeta | None = None

    def __post_init__(self):
        if not self.site_id:
            raise DescriptorError("site_id must be non-empty")
        if self.kind not in SITE_KINDS:
            raise DescriptorError(f"site {self.site_id!r}: unknown kind {self.kind!r}")
        if self.n < 1:
            raise DescriptorError(f"site {self.site_id!r}: n must be >= 1")
        if not self.produce:
            raise DescriptorError(f"site {self.site_id!r}: produce refs required")
        if self.kind == "attn_gqa":
            if self.gqa is None:
                raise DescriptorError(f"site {self.site_id!r}: attn_gqa needs gqa meta")
            if self.gqa.h_kv != self.n:
                raise DescriptorError(
                    f"site {self.site_id!r}: n={self.n} != h_kv={self.gqa.h_kv}"
                )
        elif self.gqa is not None:
            raise DescriptorError(f"site {self.site_id!r}: gqa meta only for attn_gqa")
        refs = list(self.produce) + list(self.consume)
        if len(set(refs)) != len(refs):
            raise DescriptorError(f"site {self.site_id!r}: repeated tensor-axis ref")

    @property
    def refs(self) -> tuple[Ref, ...]:
        return self.produce + self.consume

    def tensor_names(self) -> set[str]:
        return {name for name, _ in self.refs}


@dataclass(frozen=True)
class ArchDescriptor:
    sites: tuple[PermutableSite, ...]
    total_params: int
    shapes: dict[str, tuple[int, ...]] | None = None
    notes: str = ""

    def __post_init__(self):
        if self.total_params < 0:
            raise DescriptorError("total_params must be >= 0")
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise DescriptorError("site_id values must be unique")
        produced: dict[Ref, str] = {}
        for site in self.sites:
            for ref in site.produce:
                if ref in produced:
                    raise DescriptorError(
                        f"tensor axis {ref} produced by both "
                        f"{produced[ref]!r} and {site.site_id!r}"
                    )
                produced[ref] = site.site_id

    def site(self, site_id: str) -> PermutableSite:
        for s in self.sites:
            if s.site_id == site_id:
                return s
        raise KeyError(site_id)


def validate_descriptor(
    desc: ArchDescriptor, archive: ModelArchive | None = None
) -> dict[str, int]:
    """Eager checks: refs resolve and every axis extent fits its site.

    fc_pair and conv_block axes must equal n exactly; an attn_gqa axis must
    hold n blocks of the width its ref position sets (see the module doc).

    Returns {tensor name: element count} for every tensor a site names,
    from the archive's shapes, or from the shapes map when there is no
    archive: the sizes coverage accounting and site selection use.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for name in sorted({name for site in desc.sites for name, _ in site.refs}):
        if archive is not None:
            if name not in archive.tensors:
                raise DescriptorError(f"descriptor references missing tensor {name!r}")
            shapes[name] = archive.shape_of(name)
        elif desc.shapes is not None and name in desc.shapes:
            shapes[name] = desc.shapes[name]
        else:
            raise DescriptorError(
                f"no shape known for {name!r} (no archive bound, not in shapes map)"
            )
    if archive is not None:
        if self_consistent := desc.shapes:
            for name, shape in self_consistent.items():
                if name in archive.tensors and tuple(shape) != archive.shape_of(name):
                    raise DescriptorError(
                        f"shapes map disagrees with archive for {name!r}: "
                        f"{tuple(shape)} vs {archive.shape_of(name)}"
                    )
        if desc.total_params != archive.param_count:
            raise DescriptorError(
                f"total_params {desc.total_params} != archive parameter count "
                f"{archive.param_count}"
            )
    elif desc.shapes is not None:
        listed = sum(math.prod(s) for s in desc.shapes.values())
        if listed > desc.total_params:
            raise DescriptorError(
                f"shapes map holds {listed} params, more than total_params "
                f"{desc.total_params}"
            )

    for site in desc.sites:
        for i, (name, axis) in enumerate(site.refs):
            shape = shapes[name]
            if axis < 0 or axis >= len(shape):
                raise DescriptorError(
                    f"site {site.site_id!r}: axis {axis} out of range for "
                    f"{name!r} with shape {shape}"
                )
            extent = shape[axis]
            if site.kind == "attn_gqa":
                kv = 0 < i < len(site.produce)
                width = site.gqa.head_dim if kv else site.gqa.group_width
                if extent != site.n * width:
                    role = "k/v rows" if kv else "q rows or o columns"
                    raise DescriptorError(
                        f"site {site.site_id!r}: {name!r} axis {axis} extent {extent} has "
                        f"group width {extent / site.n:g}; as {role} it needs {width}"
                    )
            elif extent != site.n:
                raise DescriptorError(
                    f"site {site.site_id!r}: {name!r} axis {axis} extent "
                    f"{extent} != n={site.n}"
                )
    return {name: math.prod(shape) for name, shape in shapes.items()}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_refs(site_id: str, role: str, raw) -> tuple[Ref, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise DescriptorError(f"site {site_id!r}: {role} must be a list")
    out = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or not _is_int(item[1])
        ):
            raise DescriptorError(
                f"site {site_id!r}: {role} entries must be [name, axis], got {item!r}"
            )
        out.append((item[0], item[1]))
    return tuple(out)


def descriptor_from_dict(doc: dict) -> ArchDescriptor:
    if not isinstance(doc, dict):
        raise DescriptorError("descriptor must be a JSON object")
    if "sites" not in doc or "total_params" not in doc:
        raise DescriptorError("descriptor needs 'sites' and 'total_params'")
    raw_sites = doc["sites"]
    if not isinstance(raw_sites, list):
        raise DescriptorError("'sites' must be a list")
    total = doc["total_params"]
    if not _is_int(total):
        raise DescriptorError("'total_params' must be an integer")
    sites = []
    for raw in raw_sites:
        if not isinstance(raw, dict):
            raise DescriptorError("each site must be an object")
        sid = raw.get("site_id")
        if not isinstance(sid, str):
            raise DescriptorError(f"site_id must be a string, got {sid!r}")
        gqa = None
        if raw.get("gqa") is not None:
            g = raw["gqa"]
            if not isinstance(g, dict) or {"h_q", "h_kv", "head_dim"} - g.keys():
                raise DescriptorError(f"site {sid!r}: gqa needs h_q, h_kv, head_dim")
            if not all(_is_int(g[k]) for k in ("h_q", "h_kv", "head_dim")):
                raise DescriptorError(f"site {sid!r}: gqa fields must be integers")
            gqa = GqaMeta(g["h_q"], g["h_kv"], g["head_dim"])
        n = raw.get("n")
        if not _is_int(n):
            raise DescriptorError(f"site {sid!r}: n must be an integer")
        sites.append(
            PermutableSite(
                site_id=sid,
                kind=raw.get("kind", ""),
                n=n,
                produce=_parse_refs(sid, "produce", raw.get("produce")),
                consume=_parse_refs(sid, "consume", raw.get("consume")),
                gqa=gqa,
            )
        )
    shapes = None
    if doc.get("shapes") is not None:
        raw_shapes = doc["shapes"]
        if not isinstance(raw_shapes, dict):
            raise DescriptorError("'shapes' must be an object")
        shapes = {}
        for name, shape in raw_shapes.items():
            if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
                raise DescriptorError(f"shape for {name!r} must be a list of ints")
            shapes[name] = tuple(shape)
    return ArchDescriptor(
        sites=tuple(sites),
        total_params=total,
        shapes=shapes,
        notes=str(doc.get("notes", "")),
    )


def descriptor_to_dict(desc: ArchDescriptor) -> dict:
    doc: dict = {
        "sites": [
            {
                "site_id": s.site_id,
                "kind": s.kind,
                "n": s.n,
                "produce": [[n, a] for n, a in s.produce],
                "consume": [[n, a] for n, a in s.consume],
                **(
                    {
                        "gqa": {
                            "h_q": s.gqa.h_q,
                            "h_kv": s.gqa.h_kv,
                            "head_dim": s.gqa.head_dim,
                        }
                    }
                    if s.gqa
                    else {}
                ),
            }
            for s in desc.sites
        ],
        "total_params": desc.total_params,
    }
    if desc.shapes is not None:
        doc["shapes"] = {k: list(v) for k, v in desc.shapes.items()}
    if desc.notes:
        doc["notes"] = desc.notes
    return doc


def parse_descriptor(text: str, archive: ModelArchive | None = None) -> ArchDescriptor:
    """Parse descriptor JSON and validate it eagerly.

    With an archive the refs are checked against real shapes; without one
    the embedded shapes map is used when present, otherwise only structural
    checks run.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DescriptorError(f"descriptor is not valid JSON: {e.msg}") from e
    except RecursionError as e:
        raise DescriptorError("descriptor JSON is nested too deeply") from e
    desc = descriptor_from_dict(doc)
    if archive is not None or desc.shapes is not None:
        validate_descriptor(desc, archive)
    return desc


def load_descriptor(path, archive: ModelArchive | None = None) -> ArchDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read(), archive)
