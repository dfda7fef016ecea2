import json
import math

import pytest

from neuperm.archive import ModelArchive
from neuperm.descriptor import (
    ArchDescriptor,
    GqaMeta,
    PermutableSite,
    descriptor_from_dict,
    descriptor_to_dict,
    load_descriptor,
    parse_descriptor,
    validate_descriptor,
)
from neuperm.errors import DescriptorError
from neuperm.fixtures import llama32_1b_descriptor
from neuperm.tensor import tensor

import numpy as np


def _pair_archive():
    return ModelArchive(
        {
            "fc1.weight": tensor(np.zeros((4, 3), dtype=np.float32)),
            "fc1.bias": tensor(np.zeros(4, dtype=np.float32)),
            "fc2.weight": tensor(np.zeros((2, 4), dtype=np.float32)),
        }
    )


def _pair_site():
    return PermutableSite(
        site_id="h1",
        kind="fc_pair",
        n=4,
        produce=(("fc1.weight", 0), ("fc1.bias", 0)),
        consume=(("fc2.weight", 1),),
    )


def test_valid_descriptor_passes():
    arch = _pair_archive()
    desc = ArchDescriptor(sites=(_pair_site(),), total_params=arch.param_count)
    validate_descriptor(desc, arch)  # no raise


def test_validate_returns_named_tensor_sizes(all_bundles, small_host_bundle):
    """Validation resolves the element count of every tensor a site names:
    from the archive, or from the shapes map when there is none."""
    for archive, desc, _ in [*all_bundles.values(), small_host_bundle]:
        named = {name for site in desc.sites for name, _ in site.refs}
        assert validate_descriptor(desc, archive) == {n: archive.tensors[n].size for n in named}
    llama = llama32_1b_descriptor()
    sizes = validate_descriptor(llama)
    named = {name for site in llama.sites for name, _ in site.refs}
    assert sizes == {n: math.prod(llama.shapes[n]) for n in named}
    assert sizes["model.layers.3.mlp.down_proj.weight"] == 2048 * 8192
    assert sum(sizes.values()) == 889_192_448  # the llama coverage golden


def test_site_requires_produce():
    with pytest.raises(DescriptorError, match="produce"):
        PermutableSite(site_id="x", kind="fc_pair", n=2, produce=(), consume=())


def test_site_unknown_kind():
    with pytest.raises(DescriptorError, match="kind"):
        PermutableSite(site_id="x", kind="magic", n=2, produce=(("w", 0),), consume=())


def test_site_repeated_ref():
    with pytest.raises(DescriptorError, match="repeated"):
        PermutableSite(
            site_id="x", kind="fc_pair", n=2,
            produce=(("w", 0),), consume=(("w", 0),),
        )


def test_gqa_meta_validation():
    with pytest.raises(DescriptorError, match="multiple"):
        GqaMeta(h_q=5, h_kv=2, head_dim=8)
    meta = GqaMeta(h_q=8, h_kv=2, head_dim=16)
    assert meta.group_width == 64
    with pytest.raises(DescriptorError, match="gqa"):
        PermutableSite(site_id="a", kind="attn_gqa", n=2, produce=(("q", 0),), consume=())
    with pytest.raises(DescriptorError, match="h_kv"):
        PermutableSite(
            site_id="a", kind="attn_gqa", n=4, produce=(("q", 0),), consume=(), gqa=meta
        )
    with pytest.raises(DescriptorError, match="only for"):
        PermutableSite(
            site_id="a", kind="fc_pair", n=2, produce=(("q", 0),), consume=(), gqa=meta
        )


def test_duplicate_site_ids_rejected():
    s = _pair_site()
    with pytest.raises(DescriptorError, match="unique"):
        ArchDescriptor(sites=(s, s), total_params=17)


def test_double_produce_rejected():
    s1 = _pair_site()
    s2 = PermutableSite(
        site_id="h2", kind="fc_pair", n=4, produce=(("fc1.weight", 0),), consume=()
    )
    with pytest.raises(DescriptorError, match="produced by both"):
        ArchDescriptor(sites=(s1, s2), total_params=17)


def test_extent_mismatch_caught():
    arch = _pair_archive()
    bad = PermutableSite(
        site_id="h1", kind="fc_pair", n=3,
        produce=(("fc1.weight", 0),), consume=(("fc2.weight", 1),),
    )
    desc = ArchDescriptor(sites=(bad,), total_params=arch.param_count)
    with pytest.raises(DescriptorError, match="extent"):
        validate_descriptor(desc, arch)


def test_axis_out_of_range_caught():
    arch = _pair_archive()
    bad = PermutableSite(
        site_id="h1", kind="fc_pair", n=4, produce=(("fc1.bias", 1),), consume=()
    )
    desc = ArchDescriptor(sites=(bad,), total_params=arch.param_count)
    with pytest.raises(DescriptorError, match="axis 1 out of range"):
        validate_descriptor(desc, arch)


def test_missing_tensor_caught():
    arch = _pair_archive()
    bad = PermutableSite(site_id="h1", kind="fc_pair", n=4, produce=(("ghost", 0),), consume=())
    desc = ArchDescriptor(sites=(bad,), total_params=arch.param_count)
    with pytest.raises(DescriptorError, match="missing tensor"):
        validate_descriptor(desc, arch)


def test_total_params_crosschecked():
    arch = _pair_archive()
    desc = ArchDescriptor(sites=(_pair_site(),), total_params=999)
    with pytest.raises(DescriptorError, match="total_params"):
        validate_descriptor(desc, arch)


def test_gqa_extent_rules():
    arch = ModelArchive(
        {
            "wq": tensor(np.zeros((64, 32), dtype=np.float32)),
            "wk": tensor(np.zeros((32, 32), dtype=np.float32)),
            "wo": tensor(np.zeros((32, 64), dtype=np.float32)),
        }
    )
    meta = GqaMeta(h_q=4, h_kv=2, head_dim=16)  # group_width 32
    ok = PermutableSite(
        site_id="attn", kind="attn_gqa", n=2,
        produce=(("wq", 0), ("wk", 0)), consume=(("wo", 1),), gqa=meta,
    )
    validate_descriptor(ArchDescriptor(sites=(ok,), total_params=arch.param_count), arch)
    # an axis whose group width is not the one its ref position needs fails
    for name, shape in [
        ("wq", (24, 32)),  # q rows in groups of 12: neither width
        ("wq", (32, 32)),  # q rows cut into head_dim blocks
        ("wk", (64, 32)),  # k rows cut into group-width blocks
        ("wo", (32, 32)),  # o columns cut into head_dim blocks
    ]:
        arch2 = arch.replace({name: tensor(np.zeros(shape, dtype=np.float32))})
        desc2 = ArchDescriptor(sites=(ok,), total_params=arch2.param_count)
        with pytest.raises(DescriptorError, match="group width"):
            validate_descriptor(desc2, arch2)


def test_shape_only_descriptor_validates():
    desc = ArchDescriptor(
        sites=(_pair_site(),),
        total_params=100,
        shapes={"fc1.weight": (4, 3), "fc1.bias": (4,), "fc2.weight": (2, 4)},
    )
    validate_descriptor(desc)  # no archive needed


def test_shape_only_overcount_rejected():
    desc = ArchDescriptor(
        sites=(_pair_site(),),
        total_params=10,  # less than the 24 params the shapes map lists
        shapes={"fc1.weight": (4, 3), "fc1.bias": (4,), "fc2.weight": (2, 4)},
    )
    with pytest.raises(DescriptorError, match="more than total_params"):
        validate_descriptor(desc)


def test_shapes_map_must_agree_with_archive():
    arch = _pair_archive()
    desc = ArchDescriptor(
        sites=(_pair_site(),),
        total_params=arch.param_count,
        shapes={"fc1.weight": (9, 9)},
    )
    with pytest.raises(DescriptorError, match="disagrees"):
        validate_descriptor(desc, arch)


def test_dict_roundtrip():
    meta = GqaMeta(h_q=4, h_kv=2, head_dim=16)
    site = PermutableSite(
        site_id="attn", kind="attn_gqa", n=2,
        produce=(("wq", 0), ("wk", 0)), consume=(("wo", 1),), gqa=meta,
    )
    desc = ArchDescriptor(
        sites=(_pair_site(), site),
        total_params=42,
        shapes={"wq": (64, 32)},
        notes="round trip",
    )
    back = descriptor_from_dict(descriptor_to_dict(desc))
    assert back == desc


def test_parse_descriptor_validates_with_shapes():
    doc = {
        "sites": [
            {
                "site_id": "h1", "kind": "fc_pair", "n": 5,
                "produce": [["fc1.weight", 0]], "consume": [],
            }
        ],
        "total_params": 100,
        "shapes": {"fc1.weight": [4, 3]},
    }
    with pytest.raises(DescriptorError, match="extent"):
        parse_descriptor(json.dumps(doc))


def test_parse_descriptor_bad_json():
    with pytest.raises(DescriptorError, match="JSON"):
        parse_descriptor("{nope")


def test_from_dict_malformed():
    with pytest.raises(DescriptorError):
        descriptor_from_dict({"sites": "x", "total_params": 1})
    with pytest.raises(DescriptorError):
        descriptor_from_dict({"total_params": 1})
    with pytest.raises(DescriptorError):
        descriptor_from_dict(
            {"sites": [{"site_id": "a", "kind": "fc_pair", "n": True, "produce": [["w", 0]]}],
             "total_params": 1}
        )
    with pytest.raises(DescriptorError):
        descriptor_from_dict(
            {"sites": [{"site_id": "a", "kind": "fc_pair", "n": 1,
                        "produce": [["w", "zero"]]}], "total_params": 1}
        )


def _site(**fields):
    return PermutableSite(**{
        "site_id": "h", "kind": "fc_pair", "n": 2, "produce": (("w", 0),), "consume": (),
        **fields,
    })


def _site_doc(site=None, **top):
    doc = {"site_id": "h", "kind": "fc_pair", "n": 2, "produce": [["w", 0]], "consume": []}
    return {"sites": [{**doc, **(site or {})}], "total_params": 4, **top}


#: (the malformed value built in code, the same value in JSON, text the error carries)
_MALFORMED = {
    "n-bool": (lambda: _site(n=True), _site_doc({"n": True}), "n must"),
    "n-float": (lambda: _site(n=2.5), _site_doc({"n": 2.5}), "n must"),
    "site_id-int": (lambda: _site(site_id=5), _site_doc({"site_id": 5}), "site_id"),
    "axis-str": (lambda: _site(consume=(("v", "1"),)), _site_doc({"consume": [["v", "1"]]}),
                 "axis"),
    "total_params-float": (lambda: ArchDescriptor((_site(),), total_params=1.5),
                           _site_doc(total_params=1.5), "total_params"),
    "gqa-field-float": (lambda: GqaMeta(h_q=8.0, h_kv=2, head_dim=4),
                        _site_doc({"kind": "attn_gqa",
                                   "gqa": {"h_q": 8.0, "h_kv": 2, "head_dim": 4}}),
                        "gqa fields"),
    "shape-dim-negative": (lambda: ArchDescriptor((_site(),), 4, shapes={"w": (-2, 2)}),
                           _site_doc(shapes={"w": [-2, 2]}), "shape for 'w'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_fields_rejected_in_code_and_json(case):
    """One set of rules: each value is refused when a descriptor is built in
    code and when it is read from JSON, by the same check."""
    build, doc, text = _MALFORMED[case]
    assert descriptor_from_dict(_site_doc()) == ArchDescriptor((_site(),), 4)
    with pytest.raises(DescriptorError, match=text):
        build()
    with pytest.raises(DescriptorError, match=text):
        descriptor_from_dict(doc)


def test_load_descriptor_from_file(tmp_path):
    doc = {
        "sites": [
            {
                "site_id": "h1", "kind": "fc_pair", "n": 4,
                "produce": [["fc1.weight", 0], ["fc1.bias", 0]],
                "consume": [["fc2.weight", 1]],
            }
        ],
        "total_params": _pair_archive().param_count,
    }
    p = tmp_path / "d.json"
    p.write_text(json.dumps(doc))
    desc = load_descriptor(p, _pair_archive())
    assert desc.site("h1").n == 4
    with pytest.raises(KeyError):
        desc.site("nope")


def test_fixture_descriptors_validate(all_bundles):
    for name, (arch, desc, _) in all_bundles.items():
        validate_descriptor(desc, arch)
        back = descriptor_from_dict(descriptor_to_dict(desc))
        # shapes are attached on serialization or not; compare the sites
        assert back.sites == desc.sites, name
