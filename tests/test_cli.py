import base64
import csv
import hashlib
import importlib.util
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import random_payload

import neuperm
from neuperm import cli
from neuperm.archive import load_archive, save_archive
from neuperm.cli import main
from neuperm.descriptor import descriptor_to_dict
from neuperm.fixtures import (
    llama32_1b_descriptor, ss_host, toy_cnn, toy_gqa, toy_mlp, vgg11_descriptor,
)
from neuperm.inference import network_to_dict

_SRC = Path(neuperm.__file__).resolve().parents[1]

MANIFEST_KEYS = {
    "argv", "command", "details", "inputs", "outputs", "seed", "timestamp_utc", "tool",
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """File-backed workspace: three models plus payload files, written once."""
    root = tmp_path_factory.mktemp("cliws")
    out = {"root": root}
    models = (("mlp", toy_mlp()), ("cnn", toy_cnn()), ("gqa", toy_gqa()),
              ("host", ss_host(width=128, layers=3)))
    for name, bundle in models:
        archive, desc, net = bundle
        save_archive(archive, root / f"{name}.safetensors")
        (root / f"{name}.desc.json").write_text(json.dumps(descriptor_to_dict(desc)))
        (root / f"{name}.net.json").write_text(json.dumps(network_to_dict(net)))
        out[name] = root / f"{name}.safetensors"
        out[f"{name}.desc"] = root / f"{name}.desc.json"
        out[f"{name}.net"] = root / f"{name}.net.json"
    payload = root / "payload16.bin"
    payload.write_bytes(random_payload(77, 16))
    out["payload"] = payload
    big = root / "payload125.bin"
    big.write_bytes(random_payload(78, 125))
    out["big_payload"] = big
    return out


def run(*argv) -> int:
    return main([str(a) for a in argv])


# ------------------------------------------------------------- sanitize

def test_sanitize_neuperm_verify_manifest(ws, tmp_path, capsys):
    out = tmp_path / "clean.safetensors"
    manifest = tmp_path / "run.json"
    rc = run(
        "sanitize", "--input", ws["mlp"], "--output", out,
        "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"],
        "--seed", "31", "--verify", "--net", ws["mlp.net"],
        "--manifest", manifest,
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("sanitize neuperm:1 seed=31 coverage=100.00%")
    assert "verified(max_dev=" in captured.out
    rewritten = load_archive(out)
    assert rewritten.param_count == 450

    doc = json.loads(manifest.read_text())
    assert set(doc) == MANIFEST_KEYS
    assert doc["tool"] == "neuperm" and doc["command"] == "sanitize"
    assert doc["seed"] == 31
    assert doc["details"]["coverage"]["percent"] == 100.0
    assert doc["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in (ws["mlp"], ws["mlp.desc"], ws["mlp.net"])}
    assert doc["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.safetensors", "run.json"]


@pytest.mark.parametrize("command", ["sanitize", "attack", "evaluate", "bound"])
def test_manifest_output_digest_is_the_file_sha256(ws, tmp_path, capsys, monkeypatch, command):
    """The manifest lists every output, the plan included, and every input,
    each with its file's sha256; no input file is opened again to hash it."""
    import builtins

    carrier, plan = tmp_path / "carrier.safetensors", tmp_path / "plan.json"
    assert run("attack", "--input", ws["mlp"], "--output", carrier, "--attack", "sign",
               "--payload", ws["payload"], "--seed", "9", "--plan", plan) == 0
    out, manifest = tmp_path / "out", tmp_path / "run.json"
    argv, inputs, outputs = {
        "sanitize": (["sanitize", "--input", ws["mlp"], "--disrupt", "neuperm",
                      "--descriptor", ws["mlp.desc"], "--seed", "31", "--output", out,
                      "--verify", "--net", ws["mlp.net"]],
                     [ws["mlp"], ws["mlp.desc"], ws["mlp.net"]], [out]),
        "attack": (["attack", "--input", ws["mlp"], "--attack", "lsb:2", "--payload",
                    ws["payload"], "--seed", "7", "--output", out, "--plan", tmp_path / "p2"],
                   [ws["mlp"], ws["payload"]], [out, tmp_path / "p2"]),
        "evaluate": (["evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "none",
                      "--disrupt", "neuperm:1", "--descriptor", ws["mlp.desc"], "--trials", "2",
                      "--seed", "5", "--output", out],
                     [carrier, plan, ws["mlp.desc"]], [out]),
        "bound": (["bound", "--site-sizes", "2", "--L", "8", "--simulate", "50", "--seed", "11"],
                  [], []),
    }[command]
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.abspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert run(*argv, "--manifest", manifest) == 0
    monkeypatch.undo()
    capsys.readouterr()
    doc = json.loads(manifest.read_text())
    assert set(doc) == MANIFEST_KEYS
    assert doc["command"] == command

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert doc["outputs"] == {str(p): sha256(p) for p in outputs}
    if command in ("sanitize", "attack"):
        assert doc["details"]["output_digest"] == sha256(out)
    assert doc["inputs"] == {str(p): sha256(p) for p in inputs}
    for p in inputs:
        assert opened.count(os.path.abspath(p)) == 1, p


def test_failed_streaming_write_leaves_no_file(ws, tmp_path, capsys, monkeypatch):
    """An I/O error after the archive header is out exits 1 and removes the
    staged archive; the manifest is never written."""
    import builtins

    import neuperm.archive

    class _FailAfterHeader:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            self.writes += 1
            if self.writes > 1:
                raise OSError(28, "No space left on device")
            return self.fh.write(chunk)

    opened = []

    def failing_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        opened.append(_FailAfterHeader(fh))
        return opened[-1]

    monkeypatch.setattr(neuperm.archive, "open", failing_open, raising=False)
    work = tmp_path / "work"
    work.mkdir()
    rc = run(
        "sanitize", "--input", ws["mlp"], "--output", work / "clean.safetensors",
        "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"], "--seed", "3",
        "--manifest", work / "run.json",
    )
    assert rc == 1
    assert "No space left on device" in capsys.readouterr().err
    assert [w.writes for w in opened] == [2]  # header written, first payload refused
    assert list(work.iterdir()) == []


def test_sanitize_unseeded_replay_byte_identical(ws, tmp_path, capsys):
    first = tmp_path / "a.safetensors"
    manifest = tmp_path / "a.json"
    assert run(
        "sanitize", "--input", ws["mlp"], "--output", first,
        "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"],
        "--manifest", manifest,
    ) == 0
    seed = json.loads(manifest.read_text())["seed"]

    replay = tmp_path / "b.safetensors"
    assert run(
        "sanitize", "--input", ws["mlp"], "--output", replay,
        "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"],
        "--seed", str(seed),
    ) == 0
    assert first.read_bytes() == replay.read_bytes()

    fresh = tmp_path / "c.safetensors"
    assert run(
        "sanitize", "--input", ws["mlp"], "--output", fresh,
        "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"],
    ) == 0
    assert fresh.read_bytes() != first.read_bytes()
    capsys.readouterr()


def test_sanitize_none_is_byte_identity(ws, tmp_path, capsys):
    out = tmp_path / "copy.safetensors"
    assert run("sanitize", "--input", ws["mlp"], "--output", out,
               "--disrupt", "none", "--seed", "1") == 0
    assert out.read_bytes() == ws["mlp"].read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("probes", ["0", "-2"])
def test_sanitize_probes_below_one_exit_1(ws, tmp_path, capsys, probes):
    out = tmp_path / "clean.safetensors"
    manifest = tmp_path / "run.json"
    rc = run(
        "sanitize", "--input", ws["mlp"], "--output", out,
        "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"],
        "--seed", "31", "--verify", "--net", ws["mlp.net"],
        "--probes", probes, "--manifest", manifest,
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: --probes must be >= 1" in captured.err
    assert "verified" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_sanitize_verify_failure_exit_2_no_output(ws, tmp_path, capsys):
    out = tmp_path / "never.safetensors"
    rc = run(
        "sanitize", "--input", ws["mlp"], "--output", out,
        "--disrupt", "noise:0.5", "--seed", "3",
        "--verify", "--net", ws["mlp.net"],
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "outputs diverged" in captured.err
    assert not out.exists()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_sanitize_leaves_no_helper_thread(ws, tmp_path, capsys):
    """The input and output hashes run on helper threads. None is left once
    main() returns, and the manifest holds the sha256 of each file on disk."""
    before = threading.active_count()
    out, manifest = tmp_path / "clean.safetensors", tmp_path / "run.json"
    rc = run("sanitize", "--input", ws["host"], "--output", out, "--disrupt", "neuperm",
             "--descriptor", ws["host.desc"], "--seed", "4", "--verify", "--net", ws["host.net"],
             "--manifest", manifest)
    assert rc == 0, capsys.readouterr().err
    assert threading.active_count() == before
    doc = json.loads(manifest.read_text())
    assert doc["inputs"] == {str(p): _sha256(p) for p in (ws["host"], ws["host.desc"],
                                                          ws["host.net"])}
    assert doc["outputs"] == {str(out): _sha256(out)}


def test_sanitize_verify_failure_leaves_no_helper_thread(ws, tmp_path, capsys):
    """A --verify failure exits 2 after the input hash has been joined, and
    writes neither the output nor the manifest."""
    before = threading.active_count()
    rc = run("sanitize", "--input", ws["host"], "--output", tmp_path / "never.safetensors",
             "--disrupt", "noise:0.5", "--seed", "3", "--verify", "--net", ws["host.net"],
             "--manifest", tmp_path / "run.json")
    assert rc == 2 and "outputs diverged" in capsys.readouterr().err
    assert threading.active_count() == before
    assert list(tmp_path.iterdir()) == []


def test_sanitize_missing_net_sidecar(ws, tmp_path, capsys):
    rc = run(
        "sanitize", "--input", ws["mlp"], "--output", tmp_path / "o.safetensors",
        "--disrupt", "none", "--verify",
    )
    captured = capsys.readouterr()
    assert rc == 1 and "no net sidecar" in captured.err


def test_sanitize_unknown_disruptor_exit_1(ws, tmp_path, capsys):
    out = tmp_path / "never.safetensors"
    rc = run("sanitize", "--input", ws["mlp"], "--output", out, "--disrupt", "bogus:1")
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown disruptor spec" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_sanitize_non_finite_noise_exit_1(ws, tmp_path, capsys, sigma):
    """A NaN or infinite sigma would write an archive of NaN or inf parameters."""
    out = tmp_path / "never.safetensors"
    capsys.readouterr()
    rc = run("sanitize", "--input", ws["mlp"], "--output", out, "--disrupt", f"noise:{sigma}")
    captured = capsys.readouterr()
    assert rc == 1
    [line] = captured.err.splitlines()
    assert line.startswith("error: noise sigma must be finite"), line
    assert captured.out == ""
    assert not out.exists()


def test_sanitize_corrupt_archive_exit_1(ws, tmp_path, capsys):
    junk = tmp_path / "junk.safetensors"
    junk.write_bytes(b"\xff" * 64)
    out = tmp_path / "never.safetensors"
    rc = run("sanitize", "--input", junk, "--output", out, "--disrupt", "none")
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert not out.exists()


def test_usage_error_exit_1(capsys):
    assert run("sanitize", "--output", "x") == 1
    assert run("frobnicate") == 1
    capsys.readouterr()


# --------------------------------------------------------------- attack

def test_attack_lsb_then_evaluate(ws, tmp_path, capsys):
    carrier = tmp_path / "carrier.safetensors"
    plan = tmp_path / "plan.json"
    rc = run(
        "attack", "--input", ws["mlp"], "--output", carrier,
        "--attack", "lsb:2", "--ecc", "hamming74",
        "--payload", ws["payload"], "--seed", "7", "--plan", plan,
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "attack lsb:2 ecc=hamming74 seed=7 payload=16B" in captured.out
    doc = json.loads(plan.read_text())
    assert doc["method"] == "lsb" and doc["bits_per_param"] == 2
    assert doc["payload_len"] == 16

    report = tmp_path / "report.csv"
    rc = run(
        "evaluate", "--carrier", carrier, "--plan", plan,
        "--disrupt", "none", "--disrupt", "neuperm:1",
        "--descriptor", ws["mlp.desc"], "--trials", "3",
        "--seed", "5", "--output", report,
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "evaluate 4 attempts, 1 extractions succeeded" in captured.out
    lines = report.read_text().splitlines()
    assert lines[0] == "method,param,snr_db,extraction_success"
    assert lines[1] == "none,0,,1"
    assert lines[2:] == ["neuperm,1,,0"] * 3


def test_attack_sign_then_evaluate_deterministic_collapse(ws, tmp_path, capsys):
    carrier = tmp_path / "carrier.safetensors"
    plan = tmp_path / "plan.json"
    assert run(
        "attack", "--input", ws["mlp"], "--output", carrier,
        "--attack", "sign", "--payload", ws["payload"],
        "--seed", "9", "--plan", plan,
    ) == 0

    report = tmp_path / "report.csv"
    manifest = tmp_path / "eval.json"
    rc = run(
        "evaluate", "--carrier", carrier, "--plan", plan,
        "--disrupt", "none", "--disrupt", "prune:0.5",
        "--trials", "5", "--seed", "5", "--output", report,
        "--manifest", manifest,
    )
    capsys.readouterr()
    assert rc == 0
    # both disruptors are deterministic: one variant each despite --trials 5
    rows = report.read_text().splitlines()
    assert rows == [
        "method,param,snr_db,extraction_success",
        "none,0,,1",
        "prune,0.5,,0",
    ]
    doc = json.loads(manifest.read_text())
    assert doc["details"]["attempts"] == 2 and doc["details"]["successes"] == 1
    assert doc["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in (carrier, plan)}


def test_attack_ss_then_evaluate(ws, tmp_path, capsys):
    carrier = tmp_path / "carrier.safetensors"
    plan = tmp_path / "plan.json"
    rc = run(
        "attack", "--input", ws["host"], "--output", carrier,
        "--attack", "ss:0.02", "--ecc", "repetition:3",
        "--payload", ws["payload"], "--seed", "13", "--plan", plan,
    )
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(plan.read_text())
    assert doc["method"] == "ss" and doc["gamma"] == 0.02

    report = tmp_path / "report.csv"
    rc = run(
        "evaluate", "--carrier", carrier, "--plan", plan,
        "--disrupt", "none", "--disrupt", "noise:0.0001", "--disrupt", "neuperm:1",
        "--descriptor", ws["host.desc"], "--trials", "2",
        "--seed", "6", "--output", report,
    )
    capsys.readouterr()
    assert rc == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r)
    assert len(by_method["none"]) == 1
    assert len(by_method["noise"]) == 2 and len(by_method["neuperm"]) == 2
    for r in by_method["none"] + by_method["noise"]:
        assert r["extraction_success"] == "1"
        assert float(r["snr_db"]) > 0
    for r in by_method["neuperm"]:
        assert r["extraction_success"] == "0"
        assert float(r["snr_db"]) < 0
    # snr column uses fixed 4-decimal formatting
    assert all("." in r["snr_db"] and len(r["snr_db"].split(".")[1]) == 4 for r in rows)


#: (attack, ecc, seed, sha256 of the evaluate CSV) per method on the host
#: carrier, computed before the plan of every method became one type
_FROZEN_EVALUATE = {
    "lsb": ("lsb:2", "hamming74", "7",
        "8803b938f702a1e38b37b9aa93624c92e9035584bc36bff24f0098508dbe5d7a"),
    "sign": ("sign", "repetition:3", "9",
        "8d4a367e5cb0724566eda20a350afb5d65267f2b1e866b2ae824f6db2433b6ee"),
    "ss": ("ss:0.02", "repetition:3", "13",
        "068a7304983bf7af7d074c3fb8b95872a622e6bebdecf0db1c402151dc40c002"),
}


def _frozen_evaluate_digest(ws, tmp_path, method) -> str:
    """sha256 of the CSV that the frozen attack and evaluate of `method` write."""
    attack, ecc, seed, _ = _FROZEN_EVALUATE[method]
    carrier, plan, report = (tmp_path / n for n in ("carrier.safetensors", "plan.json", "r.csv"))
    assert run("attack", "--input", ws["host"], "--output", carrier, "--attack", attack,
               "--ecc", ecc, "--payload", ws["payload"], "--seed", seed, "--plan", plan) == 0
    assert run("evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "none",
               "--disrupt", "noise:0.0001", "--disrupt", "prune:0.05", "--disrupt", "neuperm:1",
               "--descriptor", ws["host.desc"], "--trials", "2", "--seed", "5",
               "--output", report) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("method", sorted(_FROZEN_EVALUATE))
def test_evaluate_csv_frozen(ws, tmp_path, capsys, method):
    assert _frozen_evaluate_digest(ws, tmp_path, method) == _FROZEN_EVALUATE[method][3]


@pytest.mark.parametrize("rows", [1, 4])
def test_evaluate_ss_groups_keep_frozen_csv(ws, tmp_path, capsys, monkeypatch, rows):
    """With room for only `rows` host vectors, the six ss variants are
    despread in groups, one chip sweep each, and the CSV bytes stay frozen."""
    host_n = load_archive(ws["host"]).param_count
    monkeypatch.setattr(cli, "_HOST_STACK_BYTES", rows * 4 * host_n)
    assert _frozen_evaluate_digest(ws, tmp_path, "ss") == _FROZEN_EVALUATE["ss"][3]


def _under_1gb(*argv, cwd):
    """Run the CLI in a child process whose address space is capped at 1 GB.
    The child runs on at most two CPUs with OpenBLAS at one thread, so the
    cap bounds the command's arrays, not per-thread reservations."""
    child = (
        "import os, resource, sys\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "if hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from neuperm.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return _fresh_interpreter([sys.executable, "-c", child], *argv, cwd=cwd)


def test_evaluate_many_ss_variants_fit_1gb(tmp_path):
    """400 variants of a 2^20-parameter carrier would be a 1.6 GB float32
    stack; despread in budgeted groups they run in a 1 GB address space."""
    pytest.importorskip("resource")
    archive, desc, _ = ss_host()
    host, desc_path = tmp_path / "host.safetensors", tmp_path / "host.desc.json"
    save_archive(archive, host)
    desc_path.write_text(json.dumps(descriptor_to_dict(desc)))
    payload, carrier, plan, report = (
        tmp_path / n for n in ("p.bin", "carrier.safetensors", "plan.json", "r.csv")
    )
    payload.write_bytes(random_payload(79, 4))  # 32 coded bits: each sweep is cheap
    assert run("attack", "--input", host, "--output", carrier, "--attack", "ss:0.02",
               "--payload", payload, "--seed", "3", "--plan", plan) == 0
    proc = _under_1gb("evaluate", "--carrier", carrier, "--plan", plan,
                      "--disrupt", "neuperm:1", "--descriptor", desc_path,
                      "--trials", "400", "--seed", "1", "--output", report, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "evaluate 400 attempts, 0 extractions succeeded\n"
    assert len(report.read_text().splitlines()) == 401


def test_bound_simulate_long_trial_fits_1gb(tmp_path):
    """A trial of 2*10^8 words would be a 1.6 GB draw; drawn in chunks it
    runs in a 1 GB address space."""
    pytest.importorskip("resource")
    proc = _under_1gb("bound", "--site-sizes", "2", "--L", "200000000", "--simulate", "1",
                      "--seed", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "simulated 0/1 successes (rate 0)"


@pytest.mark.parametrize("attack,extra", [
    ("lsb:2", {"bits_per_param"}), ("sign", set()), ("ss:0.02", {"gamma", "eligible", "host_n"}),
])
def test_attack_plan_holds_no_payload(ws, tmp_path, capsys, attack, extra):
    plan = tmp_path / "plan.json"
    assert run("attack", "--input", ws["host"], "--output", tmp_path / "carrier.safetensors",
               "--attack", attack, "--payload", ws["payload"], "--seed", "3",
               "--plan", plan) == 0
    capsys.readouterr()
    payload = ws["payload"].read_bytes()
    text = plan.read_text()
    for form in (base64.b64encode(payload).decode("ascii"), payload.hex()):
        assert form not in text
    doc = json.loads(text)
    assert set(doc) == {"method", "seed", "ecc", "payload_sha256", "payload_len", *extra}
    assert doc["payload_sha256"] == hashlib.sha256(payload).hexdigest()
    assert doc["payload_len"] == len(payload)


def test_evaluate_ss_plan_beyond_host_exit_3(ws, tmp_path, capsys):
    """A plan with more coded bits than its host can carry fails the same
    capacity rule as `attack`, before anything is allocated for it."""
    carrier, plan, report = (tmp_path / n for n in ("carrier.safetensors", "plan.json", "r.csv"))
    assert run("attack", "--input", ws["host"], "--output", carrier, "--attack", "ss:0.02",
               "--ecc", "repetition:3", "--payload", ws["payload"], "--seed", "13",
               "--plan", plan) == 0
    doc = json.loads(plan.read_text())
    doc["payload_len"] = 10**12
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run("evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "none",
             "--seed", "5", "--output", report)
    captured = capsys.readouterr()
    assert rc == 3
    assert "coded bits need at least" in captured.err
    assert not report.exists()


def test_attack_capacity_exit_3_no_output(ws, tmp_path, capsys):
    out = tmp_path / "never.safetensors"
    rc = run(
        "attack", "--input", ws["mlp"], "--output", out,
        "--attack", "lsb", "--payload", ws["big_payload"], "--seed", "1",
    )
    captured = capsys.readouterr()
    assert rc == 3
    assert "need 1000 positions but host has only 450" in captured.err
    assert not out.exists()


def test_attack_bad_specs_exit_1(ws, tmp_path, capsys):
    out = tmp_path / "never.safetensors"
    for spec in ("warp:3", "ss", "sign:2"):
        rc = run("attack", "--input", ws["mlp"], "--output", out,
                 "--attack", spec, "--payload", ws["payload"], "--seed", "1")
        assert rc == 1, spec
        assert not out.exists()
    # a gamma the plan reader refuses is refused before anything is embedded
    for spec in ("ss:0", "ss:-0.01", "ss:nan", "ss:inf"):
        rc = run("attack", "--input", ws["host"], "--output", out,
                 "--attack", spec, "--payload", ws["payload"], "--seed", "1")
        assert rc == 1, spec
        assert not out.exists()
    rc = run("attack", "--input", ws["mlp"], "--output", out,
             "--attack", "lsb", "--payload", ws["payload"],
             "--ecc", "repetition:2", "--seed", "1")
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["lsb:0", "lsb:9"])
def test_attack_lsb_width_out_of_range_exit_1(ws, tmp_path, capsys, spec):
    out, plan = tmp_path / "never.safetensors", tmp_path / "plan.json"
    rc = run("attack", "--input", ws["mlp"], "--output", out, "--attack", spec,
             "--payload", ws["payload"], "--seed", "1", "--plan", plan)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: plan field 'bits_per_param' must be an integer in 1..8, got {spec[4:]}\n")
    assert not out.exists() and not plan.exists()


def test_attack_empty_payload_exit_1(ws, tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    rc = run("attack", "--input", ws["mlp"], "--output", tmp_path / "o.safetensors",
             "--attack", "lsb", "--payload", empty, "--seed", "1")
    captured = capsys.readouterr()
    assert rc == 1 and "payload file is empty" in captured.err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_evaluate_trials_below_one_exit_1(ws, tmp_path, capsys, trials):
    carrier = tmp_path / "carrier.safetensors"
    plan = tmp_path / "plan.json"
    assert run(
        "attack", "--input", ws["mlp"], "--output", carrier,
        "--attack", "sign", "--payload", ws["payload"], "--seed", "9", "--plan", plan,
    ) == 0
    report = tmp_path / "report.csv"
    rc = run(
        "evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "neuperm:1",
        "--descriptor", ws["mlp.desc"], "--trials", trials, "--seed", "5", "--output", report,
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: --trials must be >= 1" in captured.err
    assert not report.exists()


def test_evaluate_without_disrupt_exit_1(ws, tmp_path, capsys):
    carrier, plan, report = (tmp_path / n for n in ("carrier.safetensors", "plan.json", "r.csv"))
    assert run("attack", "--input", ws["mlp"], "--output", carrier, "--attack", "sign",
               "--payload", ws["payload"], "--seed", "9", "--plan", plan) == 0
    capsys.readouterr()
    assert run("evaluate", "--carrier", carrier, "--plan", plan, "--output", report) == 1
    assert capsys.readouterr().err == "error: at least one --disrupt is required\n"
    assert not report.exists()


@pytest.mark.parametrize("method", ["lsb", "sign"])
@pytest.mark.parametrize("payload_len", [10**11, 10**1000], ids=["1e11", "1e1000"])
def test_evaluate_bit_plan_beyond_host_exit_3(ws, tmp_path, capsys, method, payload_len):
    """A bit plan with more slots than its carrier has parameters fails the
    capacity rule before anything is allocated for the slots, and the error
    line quotes the slot count short."""
    plan, report = tmp_path / "plan.json", tmp_path / "r.csv"
    doc = {**_LSB_PLAN, "method": method, "payload_len": payload_len}
    if method == "sign":
        del doc["bits_per_param"]
    plan.write_text(json.dumps(doc))
    rc = run("evaluate", "--carrier", ws["mlp"], "--plan", plan, "--disrupt", "none",
             "--seed", "5", "--output", report)
    [line] = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert line.startswith("error: need ") and line.endswith(" positions but host has only 450")
    assert len(line) < 120, line
    assert not report.exists()


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)",
     "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
    ("", "error: out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_exit_1_no_output(ws, tmp_path, capsys, monkeypatch, message, line):
    """A step that runs out of memory, here the probe draw of --verify (a net
    sidecar whose input shape is [100000, 100000] asks it for 74.5 GiB),
    ends in one error line and exit 1 with no output."""
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "random_inputs", exhausted)
    out = tmp_path / "never.safetensors"
    rc = run("sanitize", "--input", ws["mlp"], "--output", out, "--disrupt", "none",
             "--verify", "--net", ws["mlp.net"], "--seed", "1")
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


@pytest.mark.parametrize("simulate", ["0", "-4"])
def test_bound_simulate_below_one_exit_1(tmp_path, capsys, simulate):
    manifest = tmp_path / "bound.json"
    rc = run(
        "bound", "--site-sizes", "2", "--L", "8",
        "--simulate", simulate, "--seed", "11", "--manifest", manifest,
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: --simulate must be >= 1" in captured.err
    assert "simulated" not in captured.out
    assert not manifest.exists()


_LSB_PLAN = {
    "method": "lsb", "seed": 1, "ecc": "none", "payload_sha256": "0" * 64,
    "payload_len": 16, "bits_per_param": 1,
}

#: an ss plan whose host is the mlp carrier's two largest weights
_SS_FIELDS = {
    "method": "ss", "seed": 1, "ecc": "none", "payload_sha256": "0" * 64, "payload_len": 1,
    "gamma": 0.009, "eligible": ["fc1.weight", "fc2.weight"], "host_n": 320,
}

_DROP = object()


def _ss_plan(**fields):
    """The plan above with some fields replaced, or removed by _DROP."""
    return {k: v for k, v in {**_SS_FIELDS, **fields}.items() if v is not _DROP}


def test_sanitize_verify_nan_outputs_exit_2(ws, tmp_path):
    """noise:1.0 turns a batchnorm running_var negative, so every rewritten
    output is NaN; verification fails instead of reading that as deviation 0,
    and the error line is all it prints (no numpy warning)."""
    out = tmp_path / "never.safetensors"
    proc = _fresh_interpreter(
        [sys.executable, "-m", "neuperm"], "sanitize", "--input", ws["cnn"], "--output", out,
        "--disrupt", "noise:1.0", "--seed", "1", "--verify", "--net", ws["cnn.net"],
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: outputs diverged: max normalized deviation nan"), line
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack-plan", "sanitize-manifest"])
def test_two_outputs_at_one_path_exit_1(ws, tmp_path, capsys, command):
    """Two outputs named by one file, here once through a symlinked directory,
    end the command with exit 1; it writes neither and leaves no temporary
    file."""
    work = tmp_path / "work"
    work.mkdir()
    (tmp_path / "link").symlink_to(work, target_is_directory=True)
    target, alias = work / "same.out", tmp_path / "link" / "same.out"
    argv = {
        "attack-plan": ["attack", "--input", ws["mlp"], "--output", target, "--attack", "sign",
                        "--payload", ws["payload"], "--seed", "9", "--plan", alias],
        "sanitize-manifest": ["sanitize", "--input", ws["mlp"], "--output", target,
                              "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"],
                              "--seed", "3", "--manifest", alias],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 1
    assert "named for two outputs" in capsys.readouterr().err
    assert list(work.iterdir()) == []


def _gqa_net(wo="attn.wo", **hyper):
    """The gqa fixture's net sidecar with its attention layer's wo tensor or
    some of its hyper-parameters replaced."""
    doc = network_to_dict(toy_gqa()[2])
    for layer in doc["layers"]:
        if layer["kind"] == "attention_gqa":
            layer["params"]["wo"] = wo
            layer["hyper"].update(hyper)
    return doc


def _gqa_site(**gqa):
    """A descriptor holding one attn_gqa site with the given gqa object."""
    return {"sites": [{"site_id": "attn", "kind": "attn_gqa", "n": 2, "produce": [["wq", 0]],
                       "gqa": gqa}], "total_params": 450}


def _gqa_norms(eps):
    """The gqa fixture's net sidecar with `eps` on every layernorm."""
    doc = network_to_dict(toy_gqa()[2])
    for layer in doc["layers"]:
        if layer["kind"] == "layernorm":
            layer["hyper"]["eps"] = eps
    return doc


def _vector_net(shape):
    """A one-dense-layer net sidecar whose vector input has the given shape."""
    return {"input": {"kind": "vector", "shape": shape},
            "layers": [{"kind": "dense", "params": {"weight": "fc1.weight"}}]}


def _image_net(kind, **hyper):
    """A one-layer image net sidecar; conv2d borrows the mlp's first weight."""
    params = {"weight": "fc1.weight"} if kind == "conv2d" else {}
    return {"input": {"kind": "image", "shape": [1, 4, 4]},
            "layers": [{"kind": kind, "params": params, "hyper": hyper}]}


#: (file the case writes, its JSON, text the error line must carry) for
#: sidecars that once escaped as a traceback or an error naming no field
_MALFORMED_SIDECARS = {
    "descriptor-gqa-h_q-string": ("desc", {
        "sites": [{
            "site_id": "attn", "kind": "attn_gqa", "n": 2, "produce": [["wq", 0]],
            "gqa": {"h_q": "8", "h_kv": 2, "head_dim": 4},
        }],
        "total_params": 450,
    }, "gqa"),
    "descriptor-not-an-object": ("desc", [], "descriptor must be a JSON object"),
    "descriptor-site-not-an-object": ("desc", {"sites": ["fc1"], "total_params": 450},
                                      "each site must be an object"),
    "descriptor-gqa-missing-key": ("desc", _gqa_site(h_q=8, h_kv=2),
                                   "gqa needs h_q, h_kv, head_dim"),
    "descriptor-gqa-field-0": ("desc", _gqa_site(h_q=8, h_kv=2, head_dim=0),
                               "gqa fields must be positive"),
    "descriptor-produce-not-a-list": ("desc", {
        "sites": [{"site_id": "fc1", "kind": "fc_pair", "n": 32, "produce": "fc1.weight"}],
        "total_params": 450,
    }, "produce must be a list"),
    "descriptor-shapes-not-an-object": ("desc", {"sites": [], "total_params": 450, "shapes": []},
                                        "'shapes' must be an object"),
    "descriptor-notes-not-a-string": ("desc", {"sites": [], "total_params": 450, "notes": 3},
                                      "notes must be a string"),
    "net-no-input": ("net", {"layers": []}, "needs an 'input' object"),
    "net-layer-a-string": ("net", {"layers": ["dense"], "input": {"kind": "vector", "shape": [8]}},
                           "net sidecar layer must be an object"),
    "net-hyper-not-a-number": ("net", _image_net("maxpool2d", kernel="2"),
                               "hyper values must be numbers"),
    "net-maxpool-kernel-beyond-image": ("net", _image_net("maxpool2d", kernel=9),
                                        "maxpool2d 'kernel' 9 is larger than the 4x4"),
    "net-avgpool-kernel-beyond-image": ("net", _image_net("avgpool2d", kernel=5),
                                        "avgpool2d 'kernel' 5 is larger than the 4x4"),
    "net-attention-h_q-not-multiple": ("gqa-net", _gqa_net(h_q=7),
                                       "attention_gqa 'h_q' 7 is not a multiple of 'h_kv' 4"),
    "net-attention-h_q-rows": ("gqa-net", _gqa_net(h_q=4),
                               "attention_gqa wq needs 16 rows ('h_q' x 'head_dim')"),
    "net-attention-h_kv-rows": ("gqa-net", _gqa_net(h_kv=2),
                                "attention_gqa wk needs 8 rows ('h_kv' x 'head_dim')"),
    "net-attention-head_dim": ("gqa-net", _gqa_net(head_dim=8),
                               "attention_gqa wq needs 64 rows ('h_q' x 'head_dim')"),
    "net-attention-wo-columns": ("gqa-net", _gqa_net(wo="mlp.w2"),
                                 "attention_gqa wo needs 32 columns ('h_q' x 'head_dim')"),
    "net-vocab-beyond-int64": ("net", {
        "input": {"kind": "tokens", "shape": [2]},
        "layers": [{"kind": "embedding-lookup", "params": {"table": "fc1.weight"},
                    "hyper": {"vocab": 10**30}}],
    }, "'vocab' must be an integer >= 1"),
    "net-layers-string": ("net", {"layers": "dense", "input": {"kind": "vector", "shape": [8]}},
                          "layers"),
    "net-maxpool-kernel-0": ("net", _image_net("maxpool2d", kernel=0), "'kernel'"),
    "net-avgpool-stride-0": ("net", _image_net("avgpool2d", kernel=2, stride=0), "'stride'"),
    "net-maxpool-stride-negative": ("net", _image_net("maxpool2d", kernel=2, stride=-1),
                                    "'stride'"),
    "net-conv-padding-negative": ("net", _image_net("conv2d", padding=-1), "'padding'"),
    "net-conv-weight-2d": ("net", _image_net("conv2d"), "4-d"),
    "net-conv-padding-huge": ("cnn-net", {
        "input": {"kind": "image", "shape": [3, 8, 8]},
        "layers": [{"kind": "conv2d", "params": {"weight": "conv1.weight"},
                    "hyper": {"padding": 1000000}}],
    }, "'padding'"),
    "net-vocab-huge": ("net", {
        "input": {"kind": "tokens", "shape": [2]},
        "layers": [{"kind": "embedding-lookup", "params": {"table": "fc1.weight"},
                    "hyper": {"vocab": 1e308}}],
    }, "'vocab'"),
    "net-param-missing-tensor": ("net", {
        "input": {"kind": "vector", "shape": [8]},
        "layers": [{"kind": "dense", "params": {"weight": "nope"}}],
    }, "layer 0 (dense) names tensors the archive lacks: ['nope']"),
    "net-maxpool-no-kernel": ("net", _image_net("maxpool2d"),
                              "layer maxpool2d lacks required hyper 'kernel'"),
    "net-avgpool-no-kernel": ("net", _image_net("avgpool2d", stride=1),
                              "layer avgpool2d lacks required hyper 'kernel'"),
    "net-avgpool-global-0-no-kernel": ("net", _image_net("avgpool2d", **{"global": 0}),
                                       "layer avgpool2d lacks required hyper 'kernel'"),
    "net-attention-no-h_q": ("net", {
        "input": {"kind": "tokens", "shape": [2]},
        "layers": [{"kind": "attention_gqa",
                    "params": {role: "fc1.weight" for role in ("wq", "wk", "wv", "wo")},
                    "hyper": {"h_kv": 1, "head_dim": 8}}],
    }, "layer attention_gqa lacks required hyper 'h_q'"),
    "net-layernorm-eps-infinity": ("gqa-net", _gqa_norms(float("inf")),
                                   "layer layernorm: 'eps' must be a finite number in (0, 1)"),
    "net-layernorm-eps-1e30": ("gqa-net", _gqa_norms(1e30), "layer layernorm: 'eps'"),
    "net-layernorm-eps-negative": ("gqa-net", _gqa_norms(-1), "layer layernorm: 'eps'"),
    "net-batchnorm-eps-0": ("cnn-net", {
        "input": {"kind": "image", "shape": [6, 8, 8]},
        "layers": [{"kind": "batchnorm2d", "hyper": {"eps": 0}, "params": {
            role: f"bn1.{role}" for role in ("gamma", "beta", "running_mean", "running_var")}}],
    }, "layer batchnorm2d: 'eps'"),
    "net-input-shape-0": ("net", _vector_net([0, 8]), "input shape"),
    "net-input-shape-2**63": ("net", _vector_net([2 ** 63]), "input shape"),
    "net-input-shape-product-2**64": ("net", _vector_net([2 ** 32, 2 ** 32]), "input shape"),
    "net-tokens-2d": ("net", {
        "input": {"kind": "tokens", "shape": [2, 3]},
        "layers": [{"kind": "embedding-lookup", "params": {"table": "fc1.weight"},
                    "hyper": {"vocab": 4}}],
    }, "tokens input must be 1-d"),
    "plan-payload_len-string": ("plan", {**_LSB_PLAN, "payload_len": "x"}, "payload_len"),
    "plan-is-a-list": ("plan", [_LSB_PLAN], "object"),
    "plan-method-unknown": ("plan", {**_LSB_PLAN, "method": "xor"},
                            "plan method 'xor' is not one of lsb, sign, ss"),
    "plan-bits_per_param-0": ("plan", {**_LSB_PLAN, "bits_per_param": 0}, "'bits_per_param'"),
    "plan-bits_per_param-9": ("plan", {**_LSB_PLAN, "bits_per_param": 9}, "'bits_per_param'"),
    "plan-bits_per_param-40": ("plan", {**_LSB_PLAN, "bits_per_param": 40}, "'bits_per_param'"),
    "ss-seed-null": ("plan", _ss_plan(seed=None), "'seed'"),
    "ss-seed-bool": ("plan", _ss_plan(seed=True), "'seed'"),
    "ss-gamma-zero": ("plan", _ss_plan(gamma=0), "'gamma'"),
    "ss-gamma-string": ("plan", _ss_plan(gamma="0.009"), "'gamma'"),
    "ss-gamma-beyond-float": ("plan", _ss_plan(gamma=10 ** 400), "'gamma'"),
    "ss-payload_len-missing": ("plan", _ss_plan(payload_len=_DROP), "'payload_len'"),
    "ss-ecc-unknown": ("plan", _ss_plan(ecc="golay"), "'ecc'"),
    "ss-eligible-string": ("plan", _ss_plan(eligible="fc1.weight"), "'eligible'"),
    "ss-eligible-not-in-carrier": ("plan", _ss_plan(eligible=["fc1.weight", "wq"]), "'wq'"),
    "ss-host_n-missing": ("plan", _ss_plan(host_n=_DROP), "'host_n'"),
    "ss-host_n-zero": ("plan", _ss_plan(host_n=0), "'host_n'"),
    "ss-host_n-mismatch": ("plan", _ss_plan(host_n=321), "host_n"),
    "ss-sha256-not-hex": ("plan", _ss_plan(payload_sha256="z" * 64), "'payload_sha256'"),
    # the nested form older versions wrote: gamma and the host inside an "ss" object
    "ss-nested-form": ("plan", {
        "method": "ss", "seed": 1, "ecc": "none", "payload_sha256": "0" * 64, "payload_len": 1,
        "ss": {"seed": 1, "ecc": "none", "payload_sha256": "0" * 64, "payload_bits": 8,
               "gamma": 0.009, "eligible": ["fc1.weight", "fc2.weight"], "host_n": 320},
    }, "plan field 'gamma' must be a finite number > 0, got None"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SIDECARS))
def test_malformed_sidecar_exit_1(ws, tmp_path, capsys, case):
    role, doc, names = _MALFORMED_SIDECARS[case]
    bad = tmp_path / f"{role}.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    sanitize = ["sanitize", "--input", ws["mlp"], "--output", out, "--disrupt", "none"]
    argv = {
        "desc": [*sanitize, "--descriptor", bad],
        "net": [*sanitize, "--verify", "--net", bad],
        "cnn-net": ["sanitize", "--input", ws["cnn"], "--output", out, "--disrupt", "none",
                    "--verify", "--net", bad],
        "gqa-net": ["sanitize", "--input", ws["gqa"], "--output", out, "--disrupt", "none",
                    "--verify", "--net", bad],
        "plan": ["evaluate", "--carrier", ws["mlp"], "--plan", bad,
                 "--disrupt", "none", "--output", out],
    }[role]
    rc = run(*argv)
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "error:" in err and names in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("role", ["archive", "desc", "net", "plan"])
def test_deeply_nested_json_exit_1(ws, tmp_path, role):
    """JSON nested past the parser's recursion limit, in any of the four JSON
    inputs, ends in one error line and exit 1 with no output. The files are
    raw text: json.dumps cannot build them."""
    nested = "[" * 200_000
    bad = tmp_path / f"{role}.json"
    if role == "archive":
        bad.write_bytes(struct.pack("<Q", len(nested)) + nested.encode())
    else:
        bad.write_text(nested)
    out = tmp_path / "out"
    sanitize = ["sanitize", "--input", ws["mlp"], "--output", out, "--disrupt", "none"]
    argv = {
        "archive": ["sanitize", "--input", bad, "--output", out, "--disrupt", "none"],
        "desc": [*sanitize, "--descriptor", bad],
        "net": [*sanitize, "--verify", "--net", bad],
        "plan": ["evaluate", "--carrier", ws["mlp"], "--plan", bad,
                 "--disrupt", "none", "--output", out],
    }[role]
    proc = _fresh_interpreter([sys.executable, "-m", "neuperm"], *argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "nested too deeply" in line, line
    assert proc.stdout == ""
    assert not out.exists()


def _sidecar_argv(ws, tmp_path, role, bad, out):
    """A command that reads `bad` as its descriptor, net sidecar or plan;
    with well-formed input each of them exits 0."""
    if role == "plan":
        carrier, plan = tmp_path / "carrier.safetensors", tmp_path / "plan.json"
        assert run("attack", "--input", ws["mlp"], "--output", carrier, "--attack", "sign",
                   "--payload", ws["payload"], "--seed", "9", "--plan", plan) == 0
        return ["evaluate", "--carrier", carrier, "--plan", bad, "--disrupt", "neuperm",
                "--descriptor", ws["mlp.desc"], "--seed", "5", "--output", out]
    sanitize = ["sanitize", "--input", ws["mlp"], "--output", out, "--disrupt", "neuperm",
                "--seed", "3", "--verify", "--net"]
    if role == "desc":
        return [*sanitize, ws["mlp.net"], "--descriptor", bad]
    return [*sanitize, bad, "--descriptor", ws["mlp.desc"]]


@pytest.mark.parametrize("role,key", [("desc", "sites"), ("net", "layers"), ("plan", "seed")])
def test_repeated_key_exit_1(ws, tmp_path, capsys, role, key):
    """An object that repeats a key is refused, not read with the last value
    winning: a descriptor whose second "sites" is empty would otherwise move
    nothing and still exit 0."""
    bad, out = tmp_path / f"{role}.json", tmp_path / "out"
    argv = _sidecar_argv(ws, tmp_path, role, bad, out)
    good = (tmp_path / "plan.json") if role == "plan" else ws[f"mlp.{role}"]
    text = good.read_text().rstrip()
    bad.write_text(text[:-1] + f', "{key}": ' + ("2}" if key == "seed" else "[]}"))
    capsys.readouterr()
    assert run(*argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert f"repeats the key '{key}'" in line, line
    assert not out.exists()


@pytest.mark.parametrize("role,what", [("net", "net sidecar"), ("plan", "plan")])
def test_non_json_sidecar_error_names_input(ws, tmp_path, capsys, role, what):
    bad, out = tmp_path / f"{role}.json", tmp_path / "out"
    argv = _sidecar_argv(ws, tmp_path, role, bad, out)
    bad.write_text("{\n")
    capsys.readouterr()
    assert run(*argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {what} is not valid JSON: "), line
    assert not out.exists()


@pytest.mark.parametrize("role,what", [
    ("desc", "descriptor"), ("net", "net sidecar"), ("plan", "plan"),
])
def test_non_utf8_sidecar_error_names_input(ws, tmp_path, capsys, role, what):
    bad, out = tmp_path / f"{role}.json", tmp_path / "out"
    argv = _sidecar_argv(ws, tmp_path, role, bad, out)
    bad.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert run(*argv) == 1
    got = capsys.readouterr()
    [line] = got.err.splitlines()
    assert line.startswith(f"error: {what} is not UTF-8 text: "), line
    assert got.out == ""
    assert not out.exists()


@pytest.mark.parametrize("role,doc,code", [
    ("plan", {**_LSB_PLAN, "seed": [0] * 5000}, 1),
    ("plan", _ss_plan(eligible=[f"t{i}" for i in range(5000)]), 1),
    ("plan", _ss_plan(host_n=10 ** 1000), 1),
    ("plan", _ss_plan(payload_len=10 ** 1000), 3),
    ("net", {"input": {"kind": "vector", "shape": [8]},
             "layers": [{"kind": [0] * 5000, "params": {"weight": 1}}]}, 1),
], ids=["long-field", "long-missing-tensors", "long-host_n", "long-payload_bits",
        "long-net-kind"])
def test_malformed_sidecar_error_line_is_short(ws, tmp_path, capsys, role, doc, code):
    """A huge value in a plan or net sidecar is quoted clipped, as in a
    descriptor: the command ends in one error line under 200 characters."""
    bad, out = tmp_path / f"{role}.json", tmp_path / "out"
    argv = _sidecar_argv(ws, tmp_path, role, bad, out)
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*argv) == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and len(line) < 200, line[:300]
    assert not out.exists()


@pytest.mark.parametrize("flag,spec,what", [
    ("--attack", "lsb:abc", "attack spec"),
    ("--attack", "ss:abc", "attack spec"),
    ("--ecc", "repetition:x", "ecc spec"),
])
def test_bad_spec_value_quotes_spec(ws, tmp_path, capsys, flag, spec, what):
    out = tmp_path / "never.safetensors"
    argv = {"--attack": "lsb", "--ecc": "none", flag: spec}
    rc = run("attack", "--input", ws["host"], "--output", out, "--payload", ws["payload"],
             "--seed", "1", "--attack", argv["--attack"], "--ecc", argv["--ecc"])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert f"{what} '{spec}'" in line, line
    assert not out.exists()


def test_deep_list_inside_descriptor_refs_exit_1(ws, tmp_path):
    """A list nested 900 deep inside `produce` parses as JSON; reading it as
    refs goes two levels down and no further, so the command ends in one
    error line, not a RecursionError."""
    deep = "[" * 900 + "]" * 900
    bad = tmp_path / "desc.json"
    bad.write_text('{"sites": [{"site_id": "h1", "kind": "fc_pair", "n": 8, "produce": '
                   + deep + '}], "total_params": 1}')
    out = tmp_path / "out"
    proc = _fresh_interpreter([sys.executable, "-m", "neuperm"], "sanitize", "--input", ws["mlp"],
                              "--output", out, "--disrupt", "neuperm", "--descriptor", bad,
                              cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: site 'h1': produce entries must be [name, axis]"), line[:200]
    assert proc.stdout == ""
    assert not out.exists()


_DEEP = "[" * 900 + "]" * 900


@pytest.mark.parametrize("site", [
    '"site_id": "h1", "kind": "fc_pair", "n": 8, "produce": ' + _DEEP,
    '"site_id": ' + _DEEP + ', "kind": "fc_pair", "n": 8, "produce": [["w", 0]]',
    '"site_id": "h1", "kind": "fc_pair", "n": 8, "produce": [["w", 0], ['
    + ", ".join(["1"] * 5000) + "]]",
    '"site_id": "' + "s" * 5000 + '", "kind": ' + _DEEP + ', "n": 8, "produce": [["w", 0]]',
], ids=["deep-ref", "deep-site-id", "long-ref", "long-site-id-deep-kind"])
def test_malformed_descriptor_error_line_is_short(ws, tmp_path, site):
    """A huge or deeply nested value in a descriptor is quoted clipped: the
    command still ends in one error line, under 200 characters."""
    bad = tmp_path / "desc.json"
    bad.write_text('{"sites": [{' + site + '}], "total_params": 1}')
    out = tmp_path / "out"
    proc = _fresh_interpreter([sys.executable, "-m", "neuperm"], "sanitize", "--input", ws["mlp"],
                              "--output", out, "--disrupt", "neuperm", "--descriptor", bad,
                              cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr[:500]
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and len(line) < 200, line[:300]
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack", "sanitize", "evaluate", "bound"])
def test_unwritable_side_output_leaves_no_file(ws, tmp_path, capsys, command):
    """The main output is written first; the plan or manifest after it cannot
    be, so the command fails and its target directory stays empty."""
    work = tmp_path / "work"
    work.mkdir()
    carrier, plan = tmp_path / "carrier.safetensors", tmp_path / "plan.json"
    assert run("attack", "--input", ws["mlp"], "--output", carrier, "--attack", "sign",
               "--payload", ws["payload"], "--seed", "9", "--plan", plan) == 0
    unwritable = tmp_path / "missing" / "side.json"
    argv = {
        "attack": ["attack", "--input", ws["mlp"], "--output", work / "carrier.safetensors",
                   "--attack", "sign", "--payload", ws["payload"], "--seed", "9",
                   "--plan", unwritable],
        "sanitize": ["sanitize", "--input", ws["mlp"], "--output", work / "clean.safetensors",
                     "--disrupt", "neuperm", "--descriptor", ws["mlp.desc"], "--seed", "3",
                     "--manifest", unwritable],
        "evaluate": ["evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "none",
                     "--seed", "5", "--output", work / "report.csv", "--manifest", unwritable],
        "bound": ["bound", "--site-sizes", "2", "--L", "8", "--simulate", "50", "--seed", "11",
                  "--manifest", unwritable],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 1
    assert "error:" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    assert not unwritable.parent.exists()


@pytest.mark.parametrize("command", ["attack", "evaluate"])
def test_sweep_helper_error_exit_1_no_output(ws, tmp_path, capsys, monkeypatch, command):
    """A chip block that fails on a sweep helper thread ends the command with
    exit 1 and an error line, writes none of its outputs, and leaves the
    BLAS thread count as it found it."""
    import threading

    import neuperm.stego as stego
    import neuperm.sweep as sweep

    work = tmp_path / "work"
    work.mkdir()
    carrier, plan = tmp_path / "carrier.safetensors", tmp_path / "plan.json"
    assert run("attack", "--input", ws["host"], "--output", carrier, "--attack", "ss:0.02",
               "--ecc", "repetition:3", "--payload", ws["payload"], "--seed", "13",
               "--plan", plan) == 0
    caller = threading.get_ident()
    real = stego._chip_words

    def failing_block(*args):
        if threading.get_ident() != caller:
            raise ValueError("chip block failed on a helper")
        return real(*args)

    monkeypatch.setattr(stego, "_chip_words", failing_block)
    monkeypatch.setattr(sweep, "workers", lambda: 2)
    blas = sweep._blas_thread_calls()
    prior = blas[0]() if blas else None
    argv = {
        "attack": ["attack", "--input", ws["host"], "--output", work / "carrier.safetensors",
                   "--attack", "ss:0.02", "--ecc", "repetition:3", "--payload", ws["payload"],
                   "--seed", "13", "--plan", work / "plan.json", "--manifest", work / "run.json"],
        "evaluate": ["evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "none",
                     "--disrupt", "neuperm:1", "--descriptor", ws["host.desc"], "--seed", "5",
                     "--output", work / "report.csv", "--manifest", work / "run.json"],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 1
    assert "error: chip block failed on a helper" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    if blas:
        assert blas[0]() == prior


def test_attack_ss_without_sched_getaffinity(ws, tmp_path, capsys, monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows) a sweep runs on
    os.cpu_count() threads: attack ss exits 0 and writes the same carrier
    bytes, and an ss evaluate exits 0."""
    import neuperm.sweep as sweep

    def attack(name):
        carrier, plan = tmp_path / f"{name}.safetensors", tmp_path / f"{name}.json"
        assert run("attack", "--input", ws["host"], "--output", carrier, "--attack", "ss:0.02",
                   "--ecc", "repetition:3", "--payload", ws["payload"], "--seed", "13",
                   "--plan", plan) == 0
        return carrier, plan

    with_affinity, _ = attack("with")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sweep.workers() == (os.cpu_count() or 1)
    without, plan = attack("without")
    assert without.read_bytes() == with_affinity.read_bytes()
    assert run("evaluate", "--carrier", without, "--plan", plan, "--disrupt", "none",
               "--seed", "5", "--output", tmp_path / "report.csv") == 0
    assert "error" not in capsys.readouterr().err


# ---------------------------------------------------------------- bound

def test_bound_golden_line(capsys):
    assert run("bound", "--d", "0.99", "--L", "1000") == 0
    out = capsys.readouterr().out
    assert out == "success_bound 4.317125e-05 (d=0.99, delta=0, L=1000)\n"


def test_bound_composite_pipeline(capsys):
    rc = run(
        "bound", "--site-sizes", "10,100", "--L-prime", "1000",
        "--L-total", "1200", "--L-np", "900", "--ecc", "repetition:3",
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "success_bound 5.761067e-196 (d=0.1, delta=0.333333, L=700)\n"


def test_bound_simulate(tmp_path, capsys):
    manifest = tmp_path / "bound.json"
    rc = run(
        "bound", "--site-sizes", "2", "--L", "8",
        "--simulate", "2000", "--seed", "11", "--manifest", manifest,
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "success_bound 3.906250e-03 (d=0.5, delta=0, L=8)" in out
    assert "simulated " in out and "/2000 successes" in out
    doc = json.loads(manifest.read_text())
    assert doc["details"]["trials"] == 2000
    assert 0 <= doc["details"]["successes"] <= 40  # exact rate 2^-8; ~8 expected


def test_bound_inapplicable_exit_4(capsys):
    rc = run("bound", "--d", "0.5", "--delta", "0.6", "--L", "100")
    captured = capsys.readouterr()
    assert rc == 4 and "error:" in captured.err


def test_bound_ineffective_exit_4(capsys):
    rc = run("bound", "--d", "0.5", "--L-prime", "100",
             "--L-total", "1200", "--L-np", "900")
    captured = capsys.readouterr()
    assert rc == 4
    assert "NeuPerm-ineffective" in captured.err


def test_bound_usage_conflicts_exit_1(capsys):
    assert run("bound", "--L", "10") == 1  # neither d nor sizes
    assert run("bound", "--d", "0.5", "--site-sizes", "4", "--L", "10") == 1
    assert run("bound", "--d", "0.5", "--L", "10", "--L-prime", "5") == 1
    assert run("bound", "--d", "0.5", "--L", "10", "--delta", "0.1",
               "--ecc", "repetition:3") == 1
    assert run("bound", "--d", "0.5", "--L", "10", "--simulate", "100") == 1
    capsys.readouterr()


@pytest.mark.parametrize("sizes", ["2,x", "2,0", "1e3", ","])
def test_bound_bad_site_sizes_quotes_value(tmp_path, capsys, sizes):
    manifest = tmp_path / "run.json"
    assert run("bound", "--site-sizes", sizes, "--L", "8", "--manifest", manifest) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: --site-sizes needs positive integers, got '{sizes}'", line
    assert not manifest.exists()


# ------------------------------------------------------- repo consistency

def test_committed_descriptors_in_sync():
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    for name, maker in (("vgg11", vgg11_descriptor), ("llama32_1b", llama32_1b_descriptor)):
        committed = json.loads((repo / "descriptors" / f"{name}.json").read_text())
        assert committed == descriptor_to_dict(maker()), name


def test_tracer_targets_resolve():
    """Every name the benchmark tracer wraps still resolves to a callable,
    so a traced run cannot fail at install time. The tracer is loaded from
    its file without touching sys.path, and its wrappers are not installed."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", _SRC.parent / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert sys.path == path
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attr}"
        assert not hasattr(owner, "__wrapped__"), f"{module_name}.{attr} is wrapped"


def _declared_entry_point(pyproject: Path) -> tuple[str, str]:
    """The `neuperm` spec under `[project.scripts]`, as (module, attr)."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(pyproject, "rb") as f:
        spec = tomllib.load(f)["project"]["scripts"]["neuperm"]
    module, sep, attr = spec.partition(":")
    assert sep and module and attr, f"entry point {spec!r} is not module:attr"
    return module, attr


def _fresh_interpreter(cmd, *argv, cwd):
    """Run `cmd argv...` in a new process with this package's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [*cmd, *map(str, argv)], capture_output=True, text=True, timeout=60, env=env, cwd=cwd,
    )


def test_console_script(tmp_path):
    """The declared console script and `python -m neuperm` run, with or without installation.

    The launcher pip generates for `module:attr` is what runs without
    installation; an installed `neuperm` on PATH must print the same.
    """
    module, attr = _declared_entry_point(_SRC.parent / "pyproject.toml")
    launchers = {
        "console script": [
            sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())",
        ],
        "python -m": [sys.executable, "-m", "neuperm"],
    }
    for label, launcher in launchers.items():
        proc = _fresh_interpreter(launcher, "bound", "--d", "0.5", "--L", "10", cwd=tmp_path)
        assert proc.returncode == 0, label
        assert proc.stdout == "success_bound 9.765625e-04 (d=0.5, delta=0, L=10)\n", label

        usage = _fresh_interpreter(launcher, "bound", "--d", "0.5", cwd=tmp_path)
        assert usage.returncode == 1, label
        assert "error: give --L or all of --L-prime, --L-total, --L-np" in usage.stderr, label

    exe = shutil.which("neuperm")
    if exe:
        installed = _fresh_interpreter([exe], "bound", "--d", "0.5", "--L", "10", cwd=tmp_path)
        assert installed.returncode == 0
        assert installed.stdout == proc.stdout
