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

Each type checks its own fields when it is built, so a descriptor built in
code meets the same rules as one read from JSON. The JSON form is the
fields themselves, lists for tuples; `descriptor_from_dict` checks only the
containers around them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .archive import ModelArchive
from .errors import DescriptorError, quote, read_json

SITE_KINDS = ("fc_pair", "conv_block", "attn_gqa")

Ref = tuple[str, int]


@dataclass(frozen=True)
class GqaMeta:
    h_q: int
    h_kv: int
    head_dim: int

    def __post_init__(self):
        fields = (self.h_q, self.h_kv, self.head_dim)
        if any(type(v) is not int for v in fields):  # bools are not counts
            raise DescriptorError("gqa fields must be integers")
        if min(fields) < 1:
            raise DescriptorError("gqa fields must be positive")
        if self.h_q % self.h_kv != 0:
            raise DescriptorError(f"h_q={self.h_q} must be a multiple of h_kv={self.h_kv}")

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
        if not isinstance(self.site_id, str) or not self.site_id:
            raise DescriptorError(
                f"site_id must be a non-empty string, got {quote(self.site_id)}"
            )
        where = f"site {quote(self.site_id)}"
        if self.kind not in SITE_KINDS:
            raise DescriptorError(f"{where}: unknown kind {quote(self.kind)}")
        if type(self.n) is not int or self.n < 1:
            raise DescriptorError(f"{where}: n must be an integer >= 1")
        for role, refs in (("produce", self.produce), ("consume", self.consume)):
            if type(refs) is not tuple:
                raise DescriptorError(f"{where}: {role} must be a tuple of refs")
            for ref in refs:
                if not (
                    type(ref) is tuple and len(ref) == 2
                    and isinstance(ref[0], str) and type(ref[1]) is int
                ):
                    raise DescriptorError(
                        f"{where}: {role} entries must be [name, axis], got {quote(ref)}"
                    )
        if not self.produce:
            raise DescriptorError(f"{where}: produce refs required")
        if self.kind == "attn_gqa":
            if self.gqa is None:
                raise DescriptorError(f"{where}: attn_gqa needs gqa meta")
            if self.gqa.h_kv != self.n:
                raise DescriptorError(f"{where}: n={self.n} != h_kv={self.gqa.h_kv}")
        elif self.gqa is not None:
            raise DescriptorError(f"{where}: gqa meta only for attn_gqa")
        if len(set(self.refs)) != len(self.refs):
            raise DescriptorError(f"{where}: repeated tensor-axis ref")

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
        if type(self.total_params) is not int or self.total_params < 0:
            raise DescriptorError("total_params must be an integer >= 0")
        for name, shape in (self.shapes or {}).items():
            if type(shape) is not tuple or any(type(s) is not int or s < 0 for s in shape):
                raise DescriptorError(f"shape for {name!r} must be a list of ints >= 0")
        if not isinstance(self.notes, str):
            raise DescriptorError("notes must be a string")
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
            shapes[name] = archive.tensors[name].shape
        elif desc.shapes is not None and name in desc.shapes:
            shapes[name] = desc.shapes[name]
        else:
            raise DescriptorError(
                f"no shape known for {name!r} (no archive bound, not in shapes map)"
            )
    if archive is not None:
        for name, shape in (desc.shapes or {}).items():
            if name in archive.tensors and shape != archive.tensors[name].shape:
                raise DescriptorError(
                    f"shapes map disagrees with archive for {name!r}: "
                    f"{shape} vs {archive.tensors[name].shape}"
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


def _tuples(raw, site_id, role: str) -> tuple:
    """A site's JSON ref list as a tuple, each list entry in it as a tuple:
    the two levels the schema nests, and never deeper. None reads as []."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise DescriptorError(f"site {quote(site_id)}: {role} must be a list")
    return tuple(tuple(ref) if isinstance(ref, list) else ref for ref in raw)


def descriptor_from_dict(doc: dict) -> ArchDescriptor:
    """The descriptor a JSON document holds. Only the containers are checked
    here; the types check every value in them."""
    if not isinstance(doc, dict):
        raise DescriptorError("descriptor must be a JSON object")
    if "sites" not in doc or "total_params" not in doc:
        raise DescriptorError("descriptor needs 'sites' and 'total_params'")
    if not isinstance(doc["sites"], list):
        raise DescriptorError("'sites' must be a list")
    sites = []
    for raw in doc["sites"]:
        if not isinstance(raw, dict):
            raise DescriptorError("each site must be an object")
        sid, gqa = raw.get("site_id"), raw.get("gqa")
        if gqa is not None:
            if not isinstance(gqa, dict) or {"h_q", "h_kv", "head_dim"} - gqa.keys():
                raise DescriptorError(f"site {quote(sid)}: gqa needs h_q, h_kv, head_dim")
            gqa = GqaMeta(gqa["h_q"], gqa["h_kv"], gqa["head_dim"])
        sites.append(PermutableSite(
            site_id=sid,
            kind=raw.get("kind", ""),
            n=raw.get("n"),
            produce=_tuples(raw.get("produce"), sid, "produce"),
            consume=_tuples(raw.get("consume"), sid, "consume"),
            gqa=gqa,
        ))
    shapes = doc.get("shapes")
    if shapes is not None:
        if not isinstance(shapes, dict):
            raise DescriptorError("'shapes' must be an object")
        shapes = {name: tuple(s) if isinstance(s, list) else s for name, s in shapes.items()}
    return ArchDescriptor(tuple(sites), doc["total_params"], shapes, doc.get("notes", ""))


def descriptor_to_dict(desc: ArchDescriptor) -> dict:
    """The JSON form: the dataclass fields, lists for tuples, and no key for
    an absent gqa, shapes map or notes."""
    fields = asdict(
        desc, dict_factory=lambda items: {k: v for k, v in items if v is not None and v != ""}
    )
    return json.loads(json.dumps(fields))  # the round trip turns tuples into lists


def parse_descriptor(text: str | bytes, archive: ModelArchive | None = None) -> ArchDescriptor:
    """Parse descriptor JSON and validate it eagerly.

    With an archive the refs are checked against real shapes; without one
    the embedded shapes map is used when present, otherwise only structural
    checks run.
    """
    desc = descriptor_from_dict(read_json(text, "descriptor", DescriptorError))
    if archive is not None or desc.shapes is not None:
        validate_descriptor(desc, archive)
    return desc


def load_descriptor(path, archive: ModelArchive | None = None) -> ArchDescriptor:
    with open(path, "rb") as fh:
        return parse_descriptor(fh.read(), archive)
