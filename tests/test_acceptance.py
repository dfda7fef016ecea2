"""End-to-end acceptance gate.

Seven criteria, one test each. Every test prints a single PASS/FAIL line
carrying the measured quantities before asserting, so the verdict for the
whole gate reads directly off the captured log.
"""

import csv
import json
import math

import numpy as np
import pytest
from conftest import (
    max_output_deviation,
    mhsa_forward,
    random_payload,
    run_game_grid,
    write_grid_csv,
)

from neuperm.analysis import success_bound_no_ecc
from neuperm.archive import ModelArchive, parse_archive, save_archive, write_archive
from neuperm.cli import main as cli_main
from neuperm.descriptor import descriptor_to_dict
from neuperm.disrupt import apply_disruptor, parse_disruptor
from neuperm.engine import apply_schedule, count_changed_fraction, make_schedule
from neuperm.errors import ParseError
from neuperm.fixtures import llama32_1b_descriptor, ss_host, vgg11_descriptor
from neuperm.inference import random_inputs, softmax
from neuperm.rng import SeededRng, derive_seed
from neuperm.stego import AttackPlan, lsb_embed, lsb_extract, parse_ecc, sign_embed, sign_extract
from neuperm.tensor import Tensor, fisher_yates

SEED = 0xACCE97


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def big_host():
    """2^20-parameter dense host shared by the payload-survival criteria."""
    return ss_host()


@pytest.fixture(scope="module")
def ss_lab(big_host, tmp_path_factory):
    """File-backed spread-spectrum carrier built through the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    archive, desc, _net = big_host
    host_path = root / "host.safetensors"
    desc_path = root / "host.desc.json"
    save_archive(archive, host_path)
    desc_path.write_text(json.dumps(descriptor_to_dict(desc)))
    payload_path = root / "payload128.bin"
    payload_path.write_bytes(random_payload(derive_seed(SEED, "payload/ss"), 128))
    carrier = root / "carrier.safetensors"
    plan = root / "plan.json"
    rc = cli_main([
        "attack", "--input", str(host_path), "--output", str(carrier),
        "--attack", "ss:0.009", "--ecc", "repetition:3",
        "--payload", str(payload_path), "--seed", "424242", "--plan", str(plan),
    ])
    assert rc == 0
    return {"root": root, "carrier": carrier, "plan": plan, "desc": desc_path}


# --------------------------------------------------------------------- 1

def test_criterion_1_function_preservation(all_bundles):
    per_fixture = {}
    for name, (archive, desc, net) in all_bundles.items():
        tol = (
            1e-3
            if any(t.dtype == "float16" for t in archive.tensors.values())
            else 1e-5
        )
        inputs = random_inputs(net, 20, derive_seed(SEED, f"probes/{name}"))
        worst = 0.0
        for i in range(100):
            schedule = make_schedule(desc, derive_seed(SEED, f"sched/{name}/{i}"))
            permuted, _ = apply_schedule(archive, desc, schedule)
            worst = max(worst, max_output_deviation(net, archive, permuted, inputs))
        per_fixture[name] = (worst, tol)
    ok = all(worst <= tol for worst, tol in per_fixture.values())
    detail = ", ".join(
        f"{name} max_dev={worst:.3e} (tol {tol:g})"
        for name, (worst, tol) in sorted(per_fixture.items())
    )
    _report(
        "criterion 1 (function preservation)",
        ok,
        f"{detail}; 100 schedules x 20 probes per fixture",
    )


# --------------------------------------------------------------------- 2

def test_criterion_2_coverage():
    vgg = count_changed_fraction(vgg11_descriptor())
    llama = count_changed_fraction(llama32_1b_descriptor())
    ok = vgg.percent == 100.0 and abs(llama.percent - 60.0) <= 2.0
    _report(
        "criterion 2 (coverage accounting)",
        ok,
        f"vgg11 {vgg.percent}% of {vgg.total_params} params (want exactly 100), "
        f"llama32_1b {llama.percent}% of {llama.total_params} (want 60 +/- 2)",
    )


# --------------------------------------------------------------------- 3

def test_criterion_3_spread_spectrum_disruption(ss_lab, tmp_path):
    baseline_csv = tmp_path / "baseline.csv"
    rc = cli_main([
        "evaluate", "--carrier", str(ss_lab["carrier"]), "--plan", str(ss_lab["plan"]),
        "--disrupt", "none", "--disrupt", "noise:0.0001", "--disrupt", "prune:0.05",
        "--trials", "1", "--seed", "11", "--output", str(baseline_csv),
    ])
    assert rc == 0
    with open(baseline_csv, newline="") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    assert set(rows) == {"none", "noise", "prune"}

    sweep_csv = tmp_path / "neuperm.csv"
    rc = cli_main([
        "evaluate", "--carrier", str(ss_lab["carrier"]), "--plan", str(ss_lab["plan"]),
        "--disrupt", "neuperm:1", "--descriptor", str(ss_lab["desc"]),
        "--trials", "50", "--seed", "12", "--output", str(sweep_csv),
    ])
    assert rc == 0
    with open(sweep_csv, newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert len(sweep) == 50

    snr_none = float(rows["none"]["snr_db"])
    snr_noise = float(rows["noise"]["snr_db"])
    snr_prune = float(rows["prune"]["snr_db"])
    survivors_ok = (
        rows["none"]["extraction_success"] == "1"
        and snr_none > 0
        and rows["noise"]["extraction_success"] == "1"
        and abs(snr_noise - snr_none) < 0.5
        and rows["prune"]["extraction_success"] == "1"
        and snr_prune > 0
    )
    extractions = sum(int(r["extraction_success"]) for r in sweep)
    worst_snr = max(float(r["snr_db"]) for r in sweep)
    ok = survivors_ok and extractions == 0 and worst_snr < 0
    _report(
        "criterion 3 (spread-spectrum disruption)",
        ok,
        f"snr none={snr_none:+.2f} noise:0.0001={snr_noise:+.2f} "
        f"prune:0.05={snr_prune:+.2f} dB all exact; "
        f"neuperm {extractions}/50 extractions, max snr {worst_snr:+.2f} dB",
    )


# --------------------------------------------------------------------- 4

def test_criterion_4_bit_embedding_elimination(big_host):
    archive, desc, _net = big_host
    payload = random_payload(derive_seed(SEED, "payload/bits"), 125)  # 1000 bits
    ecc = parse_ecc("none")
    embed_seed = derive_seed(SEED, "embed")
    lsb_plan = AttackPlan.for_payload("lsb", payload, archive, seed=embed_seed, ecc=ecc, param=1)
    sign_plan = AttackPlan.for_payload("sign", payload, archive, seed=embed_seed, ecc=ecc)
    lsb_carrier = lsb_embed(archive, payload, lsb_plan)
    sign_carrier = sign_embed(archive, payload, sign_plan)
    assert lsb_extract(lsb_carrier, lsb_plan) == payload
    assert sign_extract(sign_carrier, sign_plan) == payload

    config = parse_disruptor("neuperm:1")
    hits = {"lsb": 0, "sign": 0}
    for i in range(100):
        sanitize_seed = derive_seed(SEED, f"sanitize/{i}")
        moved, _ = apply_disruptor(lsb_carrier, config, seed=sanitize_seed, descriptor=desc)
        got = lsb_extract(moved, lsb_plan)
        hits["lsb"] += int(got == payload)
        moved, _ = apply_disruptor(sign_carrier, config, seed=sanitize_seed, descriptor=desc)
        got = sign_extract(moved, sign_plan)
        hits["sign"] += int(got == payload)

    worked_bound = success_bound_no_ecc(0.99, 1000)
    bound_ok = math.isclose(worked_bound, 4.317124741065825e-05, rel_tol=1e-12)
    ok = hits["lsb"] == 0 and hits["sign"] == 0 and bound_ok
    _report(
        "criterion 4 (bit-embedding elimination)",
        ok,
        f"125-byte payload survived {hits['lsb']}/100 lsb and {hits['sign']}/100 sign "
        f"rewrites; worked bound d=0.99 L=1000 -> {worked_bound:.6e} "
        f"({'matches' if bound_ok else 'DOES NOT match'} frozen value)",
    )


# --------------------------------------------------------------------- 5

def test_criterion_5_bound_vs_simulation(tmp_path):
    rows = run_game_grid(
        [10, 100, 1000], [30, 100, 1000], delta=1 / 3, trials=10_000,
        seed=derive_seed(SEED, "grid"),
    )
    violations = []
    for r in rows:
        slack = 3 * math.sqrt(r.bound * (1 - r.bound) / r.trials) + 1e-12
        if r.rate > r.bound + slack:
            violations.append((r.n, r.L, r.rate, r.bound))
    path = tmp_path / "grid.csv"
    write_grid_csv(path, rows)
    header = path.read_text().splitlines()[0]
    ok = not violations and len(rows) == 9 and header == "d,delta,L,bound,empirical,trials"
    worst = max(rows, key=lambda r: r.rate - r.bound)
    _report(
        "criterion 5 (bound vs simulation)",
        ok,
        f"9 cells x 10000 trials, delta=1/3: every empirical rate within bound "
        f"(+3 sigma); tightest cell n={worst.n} L={worst.L} empirical={worst.rate:g} "
        f"bound={worst.bound:.3e}; csv at {path.name}",
    )


# --------------------------------------------------------------------- 6

def test_criterion_6_algebraic_claims():
    worst = 0.0
    rng = SeededRng(derive_seed(SEED, "claims"))

    for _ in range(50):  # dense pair: rows of one layer, columns of the next
        n, d_in, d_out, t = (2 + rng.bounded(6) for _ in range(4))
        w1 = rng.gaussian_block(n * d_in).reshape(n, d_in)
        b1 = rng.gaussian_block(n)
        w2 = rng.gaussian_block(d_out * n).reshape(d_out, n)
        x = rng.gaussian_block(d_in * t).reshape(d_in, t)
        p = fisher_yates(n, rng)
        base = w2 @ np.maximum(w1 @ x + b1[:, None], 0.0)
        moved = w2[:, p] @ np.maximum(w1[p] @ x + b1[p][:, None], 0.0)
        worst = max(worst, float(np.max(np.abs(base - moved))))

    for _ in range(50):  # elementwise maps commute with coordinate permutation
        n = 3 + rng.bounded(8)
        v = rng.gaussian_block(n)
        p = fisher_yates(n, rng)
        worst = max(worst, float(np.max(np.abs(np.tanh(v)[p] - np.tanh(v[p])))))

    for _ in range(50):  # row-wise softmax commutes with row permutation
        r, c = 2 + rng.bounded(5), 2 + rng.bounded(5)
        m = rng.gaussian_block(r * c).reshape(r, c)
        p = fisher_yates(r, rng)
        worst = max(worst, float(np.max(np.abs(softmax(m, axis=-1)[p] - softmax(m[p], axis=-1)))))

    for trial in range(50):  # attention head reorder + matching w_o column blocks
        hrng = SeededRng(derive_seed(SEED, f"mhsa/{trial}"))
        heads = 2 + hrng.bounded(3)
        d_head = 1 + hrng.bounded(3)
        d_model = 4 + hrng.bounded(4)
        t = 3 + hrng.bounded(4)
        w_heads = [
            tuple(
                hrng.gaussian_block(d_head * d_model).reshape(d_head, d_model)
                for _ in range(3)
            )
            for _ in range(heads)
        ]
        w_o = hrng.gaussian_block(d_model * heads * d_head).reshape(d_model, heads * d_head)
        x = hrng.gaussian_block(d_model * t).reshape(d_model, t)
        p = fisher_yates(heads, hrng)
        base = mhsa_forward(w_heads, w_o, x)
        cols = (p[:, None] * d_head + np.arange(d_head)[None, :]).ravel()
        moved = mhsa_forward([w_heads[j] for j in p], w_o[:, cols], x)
        worst = max(worst, float(np.max(np.abs(base - moved))))

    ok = worst < 1e-6
    _report(
        "criterion 6 (algebraic claims)",
        ok,
        f"dense/elementwise/softmax/attention-head rewrites, 200 random instances: "
        f"max |difference| {worst:.3e} (tol 1e-6)",
    )


# --------------------------------------------------------------------- 7

def _random_archive(seed: int) -> ModelArchive:
    rng = SeededRng(seed)
    tensors = {}
    for k in range(1 + rng.bounded(4)):
        shape = tuple(1 + rng.bounded(5) for _ in range(1 + rng.bounded(3)))
        vals = rng.gaussian_block(int(np.prod(shape))).reshape(shape)
        dt = np.float16 if rng.bounded(2) else np.float32
        tensors[f"t{k}"] = Tensor(vals.astype(dt))
    meta = {"seed": str(seed)} if rng.bounded(2) else {}
    return ModelArchive(tensors, meta)


def test_criterion_7_serialization_robustness():
    for seed in range(1000):
        a = _random_archive(seed)
        if not parse_archive(write_archive(a)).same_bits(a):
            _report("criterion 7 (serialization robustness)", False,
                    f"round trip changed bits at seed {seed}")

    base = write_archive(_random_archive(77))
    rng = SeededRng(derive_seed(SEED, "fuzz"))
    foreign = 0
    for trial in range(10_000):
        buf = bytearray(base)
        op = rng.bounded(4)
        if op == 0:
            buf[rng.bounded(len(buf))] ^= 1 + rng.bounded(255)
        elif op == 1:
            del buf[rng.bounded(len(buf)):]
        elif op == 2:
            pos = rng.bounded(len(buf) + 1)
            buf[pos:pos] = bytes(rng.bounded(256) for _ in range(1 + rng.bounded(4)))
        else:
            pos = rng.bounded(len(buf))
            del buf[pos:pos + 1 + rng.bounded(4)]
        try:
            parse_archive(bytes(buf))
        except ParseError:
            pass
        except Exception:  # noqa: BLE001 -- the criterion counts escapees
            foreign += 1
    ok = foreign == 0
    _report(
        "criterion 7 (serialization robustness)",
        ok,
        f"1000 random archives round-tripped bit-exactly; 10000 byte-level "
        f"corruptions raised {foreign} exception(s) other than ParseError",
    )
