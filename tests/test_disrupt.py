import numpy as np
import pytest

from neuperm.archive import ModelArchive
from neuperm.disrupt import (
    DisruptorConfig,
    add_gaussian_noise,
    apply_disruptor,
    parse_disruptor,
    prune_magnitude,
)
from neuperm.fixtures import ss_host
from neuperm.stego import AttackPlan, host_vector, parse_ecc, ss_despread_many, ss_embed
from neuperm.tensor import tensor

from conftest import random_payload


def test_parse_disruptor_forms():
    assert parse_disruptor("none") == DisruptorConfig("none")
    assert parse_disruptor("neuperm") == DisruptorConfig("neuperm", 1.0)
    assert parse_disruptor("neuperm:0.5") == DisruptorConfig("neuperm", 0.5)
    assert parse_disruptor("noise:0.001") == DisruptorConfig("noise", 0.001)
    assert parse_disruptor("prune:0.05") == DisruptorConfig("prune", 0.05)
    for bad in ("", "bogus", "bogus:1", "noise", "noise:-1", "noise:nan", "noise:inf",
                "prune:2", "neuperm:0", "neuperm:1.5"):
        with pytest.raises(ValueError):
            parse_disruptor(bad)


def test_stochastic_kinds():
    assert [parse_disruptor(s).stochastic for s in ("none", "noise:0.1", "prune:0.5",
                                                     "neuperm")] == [False, True, False, True]


def test_spec_roundtrip():
    for s in ("none", "noise:0.001", "prune:0.05", "neuperm:0.5"):
        assert parse_disruptor(s).spec == s
    assert parse_disruptor("neuperm").spec == "neuperm:1"


def test_prune_golden():
    a = ModelArchive({"w": tensor([1.0, -2.0, 3.0, -4.0])})
    out = prune_magnitude(a, 0.5)
    assert out.tensors["w"].data.tolist() == [0.0, 0.0, 3.0, -4.0]


def test_prune_counts_floor_per_tensor():
    a = ModelArchive({"w": tensor([5.0, 4.0, 3.0, 2.0, 1.0])})  # 5 params
    out = prune_magnitude(a, 0.5)  # floor(2.5) = 2 zeros
    vals = out.tensors["w"].data.tolist()
    assert vals.count(0.0) == 2
    assert vals == [5.0, 4.0, 3.0, 0.0, 0.0]


def test_prune_extremes(mlp_bundle):
    archive, _, _ = mlp_bundle
    assert prune_magnitude(archive, 0.0).same_bits(archive)
    dead = prune_magnitude(archive, 1.0)
    for t in dead.tensors.values():
        assert not np.any(t.f32())


def test_noise_statistics(small_host_bundle):
    archive, _, _ = small_host_bundle
    noisy = add_gaussian_noise(archive, 0.01, seed=9)
    deltas = np.concatenate(
        [
            (noisy.tensors[k].f32() - archive.tensors[k].f32()).ravel()
            for k in archive.tensors
        ]
    )
    assert abs(float(deltas.std()) - 0.01) < 0.0005
    assert abs(float(deltas.mean())) < 0.001
    # per-tensor streams are independent and seeded
    again = add_gaussian_noise(archive, 0.01, seed=9)
    assert again.same_bits(noisy)
    other = add_gaussian_noise(archive, 0.01, seed=10)
    assert not other.same_bits(noisy)


def test_noise_zero_sigma_is_identity_values(mlp_bundle):
    archive, _, _ = mlp_bundle
    out = add_gaussian_noise(archive, 0.0, seed=1)
    for name in archive.tensors:
        assert np.array_equal(out.tensors[name].f32(), archive.tensors[name].f32())


def test_apply_disruptor_none_is_identity(mlp_bundle):
    archive, _, _ = mlp_bundle
    out, report = apply_disruptor(archive, parse_disruptor("none"), seed=0)
    assert out.same_bits(archive)
    assert report is None


def test_apply_disruptor_neuperm_needs_descriptor(mlp_bundle):
    archive, _, _ = mlp_bundle
    with pytest.raises(ValueError, match="descriptor"):
        apply_disruptor(archive, parse_disruptor("neuperm"), seed=0)


def test_apply_disruptor_neuperm_full_and_partial(mlp_bundle):
    archive, desc, _ = mlp_bundle
    out, report = apply_disruptor(archive, parse_disruptor("neuperm"), seed=3, descriptor=desc)
    assert report.fraction == 1.0 and not out.same_bits(archive)
    out2, report2 = apply_disruptor(
        archive, parse_disruptor("neuperm:0.3"), seed=3, descriptor=desc
    )
    assert 0.3 <= report2.fraction <= 1.0
    assert len(report2.applied_sites) <= len(report.applied_sites)


def test_apply_disruptor_seed_reproducible(mlp_bundle):
    archive, desc, _ = mlp_bundle
    a, _ = apply_disruptor(archive, parse_disruptor("neuperm"), seed=11, descriptor=desc)
    b, _ = apply_disruptor(archive, parse_disruptor("neuperm"), seed=11, descriptor=desc)
    assert a.same_bits(b)


def test_snr_degrades_monotonically_with_noise():
    """On a realistically scaled host (sigma_w = 0.02, gamma = 1e-4) the
    despread SNR falls as added noise grows, and sigma = 0.1 drowns it."""
    archive, _, _ = ss_host(width=256, layers=4, weight_sigma=0.02)
    payload = random_payload(2030, 16)
    plan = AttackPlan.for_payload("ss", payload, archive, seed=51,
                                  ecc=parse_ecc("repetition:3"), param=1e-4)
    carrier = ss_embed(archive, payload, plan)
    sigmas = [0.0, 1e-4, 1e-3, 1e-2, 1e-1]
    hosts = []
    for i, s in enumerate(sigmas):
        noisy = carrier if s == 0.0 else add_gaussian_noise(carrier, s, seed=600 + i)
        hosts.append(host_vector(noisy, plan.eligible))
    ys = ss_despread_many(np.stack(hosts), plan)
    from neuperm.stego import decode_correlations

    snrs = [decode_correlations(y, plan)[1] for y in ys]
    assert snrs[0] > 0
    assert all(a >= b - 0.8 for a, b in zip(snrs, snrs[1:])), snrs  # monotone-ish
    assert snrs[-1] < 0  # sigma 5x the weight scale: payload unreadable
    got, _ = decode_correlations(ys[-1], plan)
    assert got != payload


def test_prune_kills_when_aggressive(small_host_bundle):
    """Pruning most parameters wipes enough chips to break extraction."""
    archive, _, _ = small_host_bundle
    payload = random_payload(2031, 16)
    plan = AttackPlan.for_payload("ss", payload, archive, seed=52,
                                  ecc=parse_ecc("repetition:3"), param=0.02)
    carrier = ss_embed(archive, payload, plan)
    from neuperm.stego import ss_extract

    light, _ = apply_disruptor(carrier, parse_disruptor("prune:0.05"), seed=0)
    got_light, _ = ss_extract(light, plan)
    assert got_light == payload  # 5% pruning is survivable


def test_disruptor_value_validation():
    with pytest.raises(ValueError):
        DisruptorConfig("noise", -0.1)
    with pytest.raises(ValueError):
        DisruptorConfig("prune", 1.1)
    with pytest.raises(ValueError):
        DisruptorConfig("neuperm", 0.0)
    with pytest.raises(ValueError):
        DisruptorConfig("warp", 1.0)
