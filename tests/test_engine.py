import numpy as np
import pytest
from conftest import max_output_deviation

from neuperm.archive import ModelArchive
from neuperm.descriptor import ArchDescriptor, GqaMeta, PermutableSite
from neuperm.engine import (
    PermutationSchedule,
    apply_schedule,
    count_changed_fraction,
    make_schedule,
    site_seed,
)
from neuperm.errors import DescriptorError
from neuperm.fixtures import (
    LLAMA32_1B_TOTAL_PARAMS,
    VGG11_TOTAL_PARAMS,
    llama32_1b_descriptor,
    ss_host,
    vgg11_descriptor,
)
from neuperm.inference import random_inputs
from neuperm.rng import SeededRng, derive_seed
from neuperm.tensor import Tensor, fisher_yates, invert, tensor

F32_TOL = 1e-5
F16_TOL = 1e-3


def test_site_seed_formula():
    assert site_seed(99, "h1") == derive_seed(99, "site/h1")
    assert site_seed(99, "h1") != site_seed(99, "h2")


def test_schedule_is_deterministic(mlp_bundle):
    _, desc, _ = mlp_bundle
    s1 = make_schedule(desc, 1234)
    s2 = make_schedule(desc, 1234)
    assert set(s1.entries) == {s.site_id for s in desc.sites}
    for sid in s1.entries:
        assert np.array_equal(s1.entries[sid], s2.entries[sid])
    s3 = make_schedule(desc, 1235)
    assert any(not np.array_equal(s1.entries[k], s3.entries[k]) for k in s1.entries)


@pytest.mark.parametrize("name", ["mlp", "cnn", "gqa"])
def test_function_preserved(all_bundles, name):
    archive, desc, net = all_bundles[name]
    tol = F16_TOL if any(t.dtype == "float16" for t in archive.tensors.values()) else F32_TOL
    inputs = random_inputs(net, 10, derive_seed(5000, f"probe/{name}"))
    for k in range(10):
        schedule = make_schedule(desc, 40_000 + k, archive=archive)
        rewritten, _ = apply_schedule(archive, desc, schedule)
        dev = max_output_deviation(net, archive, rewritten, inputs)
        assert dev <= tol, f"{name} seed {40_000 + k}: deviation {dev}"


@pytest.mark.parametrize("name", ["mlp", "cnn", "gqa"])
def test_inverse_schedule_restores_bits(all_bundles, name):
    archive, desc, _ = all_bundles[name]
    schedule = make_schedule(desc, 777, archive=archive)
    rewritten, _ = apply_schedule(archive, desc, schedule)
    assert not rewritten.same_bits(archive)  # something moved
    restored, _ = apply_schedule(rewritten, desc, schedule.inverse())
    assert restored.same_bits(archive)


def test_weights_are_rearranged_not_changed(mlp_bundle):
    archive, desc, _ = mlp_bundle
    rewritten, _ = apply_schedule(archive, desc, make_schedule(desc, 31))
    for name in archive.tensors:
        a = archive.tensors[name].data.view(np.uint32).ravel()
        b = rewritten.tensors[name].data.view(np.uint32).ravel()
        assert sorted(a.tolist()) == sorted(b.tolist()), name


def test_full_coverage_fixtures(all_bundles, small_host_bundle):
    archive, desc, _ = all_bundles["mlp"]
    _, report = apply_schedule(archive, desc, make_schedule(desc, 1))
    assert report.fraction == 1.0
    archive, desc, _ = all_bundles["cnn"]
    _, report = apply_schedule(archive, desc, make_schedule(desc, 1))
    assert report.fraction == 1.0
    archive, desc, _ = small_host_bundle
    _, report = apply_schedule(archive, desc, make_schedule(desc, 1))
    assert report.fraction == 1.0


def test_gqa_coverage_value(gqa_bundle):
    archive, desc, _ = gqa_bundle
    _, report = apply_schedule(archive, desc, make_schedule(desc, 1))
    want = report.changed_params / archive.param_count
    assert report.fraction == pytest.approx(want)
    assert 0.0 < report.fraction < 1.0  # embeddings and norms stay put


def test_vgg11_coverage_golden():
    desc = vgg11_descriptor()
    report = count_changed_fraction(desc)
    assert desc.total_params == VGG11_TOTAL_PARAMS == 132_863_336
    assert report.changed_params == 132_861_824
    assert report.percent == 100.0  # two-decimal display rounds up from 99.9989


def test_llama_coverage_golden():
    desc = llama32_1b_descriptor()
    report = count_changed_fraction(desc)
    assert desc.total_params == LLAMA32_1B_TOTAL_PARAMS == 1_498_482_688
    assert report.changed_params == 889_192_448
    assert report.percent == 59.34


def test_partial_fraction_targeting(mlp_bundle):
    archive, desc, _ = mlp_bundle
    sched_small = make_schedule(desc, 9, fraction_target=0.3, archive=archive)
    assert 0 < len(sched_small.entries) < len(desc.sites)
    _, report = apply_schedule(archive, desc, sched_small)
    assert report.fraction >= 0.3
    # greedy order means the largest site comes first
    sizes = {
        s.site_id: sum(
            archive.tensors[n].size for n in s.tensor_names()
        )
        for s in desc.sites
    }
    biggest = max(sizes, key=lambda k: (sizes[k], k))
    assert biggest in sched_small.entries


def test_fraction_target_validation(mlp_bundle):
    _, desc, _ = mlp_bundle
    with pytest.raises(ValueError, match="fraction_target"):
        make_schedule(desc, 0, fraction_target=-0.5)


def test_coverage_site_subset(mlp_bundle):
    archive, desc, _ = mlp_bundle
    first = desc.sites[0].site_id
    report = count_changed_fraction(desc, site_ids=(first,), archive=archive)
    assert report.applied_sites == (first,)
    assert 0 < report.changed_params < archive.param_count
    with pytest.raises(DescriptorError, match="unknown site"):
        count_changed_fraction(desc, site_ids=("ghost",), archive=archive)


def test_apply_schedule_rejects_bad_entry(mlp_bundle):
    archive, desc, _ = mlp_bundle
    schedule = make_schedule(desc, 4)
    sid = next(iter(schedule.entries))
    broken = dict(schedule.entries)
    broken[sid] = np.zeros_like(broken[sid])

    with pytest.raises(ValueError, match="not a permutation"):
        apply_schedule(archive, desc, PermutationSchedule(4, broken))


def test_identity_schedule_counts_as_coverage(mlp_bundle):
    # coverage counts permutable positions, not how many values moved
    archive, desc, _ = mlp_bundle
    identity = PermutationSchedule(
        0, {s.site_id: np.arange(s.n, dtype=np.int64) for s in desc.sites}
    )
    rewritten, report = apply_schedule(archive, desc, identity)
    assert rewritten.same_bits(archive)
    assert report.fraction == 1.0


# ------------------------------------------------- one-site rewrites by hand

def _apply_one_site(tensors, kind, n, produce, consume, p, gqa=None):
    """apply_schedule on an archive holding just `tensors`, with one site."""
    archive = ModelArchive(dict(tensors))
    site = PermutableSite("s", kind, n, tuple(produce), tuple(consume), gqa)
    desc = ArchDescriptor((site,), total_params=archive.param_count)
    rewritten, _ = apply_schedule(archive, desc, PermutationSchedule(0, {"s": p}))
    return rewritten.tensors


def test_fc_pair_site_preserves_function():
    rng = SeededRng(8)
    w1 = Tensor(rng.gaussian_block(12).astype(np.float32).reshape(4, 3))
    b1 = Tensor(rng.gaussian_block(4).astype(np.float32))
    w2 = Tensor(rng.gaussian_block(8).astype(np.float32).reshape(2, 4))
    p = fisher_yates(4, SeededRng(3))
    out = _apply_one_site(
        {"w1": w1, "b1": b1, "w2": w2}, "fc_pair", 4,
        [("w1", 0), ("b1", 0)], [("w2", 1)], p,
    )
    w1p, b1p, w2p = out["w1"], out["b1"], out["w2"]
    x = rng.gaussian_block(3).astype(np.float32)
    h = np.maximum(w1.data @ x + b1.data, 0.0)
    hp = np.maximum(w1p.data @ x + b1p.data, 0.0)
    assert np.allclose(w2.data @ h, w2p.data @ hp, atol=1e-6)
    assert np.array_equal(hp, h[p])


def test_fc_pair_site_shape_check():
    w1 = tensor(np.zeros((4, 3), dtype=np.float32))
    w2 = tensor(np.zeros((2, 5), dtype=np.float32))
    with pytest.raises(DescriptorError, match="extent 5 != n=4"):
        _apply_one_site(
            {"w1": w1, "w2": w2}, "fc_pair", 4, [("w1", 0)], [("w2", 1)], np.arange(4)
        )


def test_conv_block_site_moves_bn_vectors():
    rng = SeededRng(10)
    w1 = Tensor(rng.gaussian_block(3 * 2 * 9).astype(np.float32).reshape(3, 2, 3, 3))
    b1 = Tensor(rng.gaussian_block(3).astype(np.float32))
    bn_names = ("gamma", "beta", "running_mean", "running_var")
    bn = {k: Tensor(rng.gaussian_block(3).astype(np.float32)) for k in bn_names}
    w2 = Tensor(rng.gaussian_block(4 * 3 * 9).astype(np.float32).reshape(4, 3, 3, 3))
    p = np.array([2, 0, 1])
    out = _apply_one_site(
        {"w1": w1, "b1": b1, "w2": w2, **bn}, "conv_block", 3,
        [("w1", 0), ("b1", 0)] + [(k, 0) for k in bn_names], [("w2", 1)], p,
    )
    assert np.array_equal(out["w1"].data, w1.data[p])
    assert np.array_equal(out["b1"].data, b1.data[p])
    for k in bn_names:
        assert np.array_equal(out[k].data, bn[k].data[p])
    assert np.array_equal(out["w2"].data, w2.data[:, p])


def test_attn_gqa_site_group_moves():
    meta = GqaMeta(h_q=4, h_kv=2, head_dim=2)  # group_width 4
    rng = SeededRng(11)
    d = 8
    wq = Tensor(rng.gaussian_block(8 * d).astype(np.float32).reshape(8, d))
    wk = Tensor(rng.gaussian_block(4 * d).astype(np.float32).reshape(4, d))
    wv = Tensor(rng.gaussian_block(4 * d).astype(np.float32).reshape(4, d))
    wo = Tensor(rng.gaussian_block(d * 8).astype(np.float32).reshape(d, 8))
    p = np.array([1, 0])
    produce = [("wq", 0), ("wk", 0), ("wv", 0)]
    out = _apply_one_site(
        {"wq": wq, "wk": wk, "wv": wv, "wo": wo}, "attn_gqa", 2,
        produce, [("wo", 1)], p, meta,
    )
    # kv rows move in head_dim blocks, q rows and o columns in group_width blocks
    assert np.array_equal(out["wk"].data, np.vstack([wk.data[2:], wk.data[:2]]))
    assert np.array_equal(out["wv"].data, np.vstack([wv.data[2:], wv.data[:2]]))
    assert np.array_equal(out["wq"].data, np.vstack([wq.data[4:], wq.data[:4]]))
    assert np.array_equal(out["wo"].data, np.hstack([wo.data[:, 4:], wo.data[:, :4]]))
    # 6 q rows split into 2 groups of 3: neither head_dim nor group width
    wq6 = Tensor(rng.gaussian_block(6 * d).astype(np.float32).reshape(6, d))
    with pytest.raises(DescriptorError, match="group width 3"):
        _apply_one_site(
            {"wq": wq6, "wk": wk, "wv": wv, "wo": wo}, "attn_gqa", 2,
            produce, [("wo", 1)], p, meta,
        )
    # k rows cut into group-width blocks: h_kv * group_width = 8 rows
    wk8 = Tensor(rng.gaussian_block(8 * d).astype(np.float32).reshape(8, d))
    with pytest.raises(DescriptorError, match="group width 4; as k/v rows it needs 2"):
        _apply_one_site(
            {"wq": wq, "wk": wk8, "wv": wv, "wo": wo}, "attn_gqa", 2,
            produce, [("wo", 1)], p, meta,
        )


def test_conv_1x1_block_equals_fc_pair():
    """A 1x1 conv pair permutes exactly like the dense pair it computes."""
    rng = SeededRng(12)
    cin, mid, cout = 3, 5, 2
    w1 = rng.gaussian_block(mid * cin).astype(np.float32).reshape(mid, cin, 1, 1)
    w2 = rng.gaussian_block(cout * mid).astype(np.float32).reshape(cout, mid, 1, 1)
    p = fisher_yates(mid, SeededRng(77))
    conv = _apply_one_site(
        {"w1": Tensor(w1), "w2": Tensor(w2)}, "conv_block", mid,
        [("w1", 0)], [("w2", 1)], p,
    )
    fc = _apply_one_site(
        {"w1": Tensor(w1.reshape(mid, cin)), "w2": Tensor(w2.reshape(cout, mid))},
        "fc_pair", mid, [("w1", 0)], [("w2", 1)], p,
    )
    assert np.array_equal(conv["w1"].data.reshape(mid, cin), fc["w1"].data)
    assert np.array_equal(conv["w2"].data.reshape(cout, mid), fc["w2"].data)


def test_fixed_point_rates_match_theory():
    """Mean fixed-point count of a uniform permutation is 1 regardless of n."""
    for n in (2, 5, 16):
        trials = 3000
        total = sum(
            int((fisher_yates(n, SeededRng(derive_seed(600 + n, f"t/{i}"))) == np.arange(n)).sum())
            for i in range(trials)
        )
        mean = total / trials
        # count variance is 1, so 4.5 sigma of the trial mean keeps this stable
        assert abs(mean - 1.0) < 4.5 / trials**0.5, f"n={n}: {mean}"


def test_schedule_uses_frozen_site_streams(mlp_bundle):
    _, desc, _ = mlp_bundle
    schedule = make_schedule(desc, 2024)
    sid = desc.sites[0].site_id
    expect = fisher_yates(desc.sites[0].n, SeededRng(site_seed(2024, sid)))
    assert np.array_equal(schedule.entries[sid], expect)


def test_host_descriptor_sites_cover_weights(small_host_bundle):
    archive, desc, _ = small_host_bundle
    report = count_changed_fraction(desc, archive=archive)
    assert report.fraction == 1.0
    assert ss_host(width=128, layers=3)[0].same_bits(archive)  # fixture determinism
