import base64
import csv
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import random_payload

import neuperm
from neuperm.archive import load_archive, save_archive
from neuperm.cli import main
from neuperm.descriptor import descriptor_to_dict
from neuperm.fixtures import llama32_1b_descriptor, ss_host, toy_cnn, toy_mlp, vgg11_descriptor
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
    models = (("mlp", toy_mlp()), ("cnn", toy_cnn()), ("host", ss_host(width=128, layers=3)))
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
    assert doc["method"] == "ss" and doc["ss"]["gamma"] == 0.02

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


@pytest.mark.parametrize("method", sorted(_FROZEN_EVALUATE))
def test_evaluate_csv_frozen(ws, tmp_path, capsys, method):
    attack, ecc, seed, want = _FROZEN_EVALUATE[method]
    carrier, plan, report = (tmp_path / n for n in ("carrier.safetensors", "plan.json", "r.csv"))
    assert run("attack", "--input", ws["host"], "--output", carrier, "--attack", attack,
               "--ecc", ecc, "--payload", ws["payload"], "--seed", seed, "--plan", plan) == 0
    assert run("evaluate", "--carrier", carrier, "--plan", plan, "--disrupt", "none",
               "--disrupt", "noise:0.0001", "--disrupt", "prune:0.05", "--disrupt", "neuperm:1",
               "--descriptor", ws["host.desc"], "--trials", "2", "--seed", "5",
               "--output", report) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("attack,extra", [
    ("lsb:2", {"bits_per_param"}), ("sign", set()), ("ss:0.02", {"ss"}),
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
    doc["ss"]["payload_bits"] = 8 * 10**12
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

#: an ss plan whose chip plan matches the mlp carrier's two largest weights
_SS_FIELDS = {
    "seed": 1, "gamma": 0.009, "payload_bits": 8, "ecc": "none",
    "eligible": ["fc1.weight", "fc2.weight"], "host_n": 320, "payload_sha256": "0" * 64,
}

_DROP = object()


def _ss_plan(**fields):
    """The plan above with some ss fields replaced, or removed by _DROP."""
    ss = {k: v for k, v in {**_SS_FIELDS, **fields}.items() if v is not _DROP}
    return {"method": "ss", "seed": 1, "ecc": "none", "payload_sha256": "0" * 64, "ss": ss}


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
    "plan-payload_len-string": ("plan", {**_LSB_PLAN, "payload_len": "x"}, "payload_len"),
    "plan-is-a-list": ("plan", [_LSB_PLAN], "object"),
    "plan-bits_per_param-0": ("plan", {**_LSB_PLAN, "bits_per_param": 0}, "'bits_per_param'"),
    "plan-bits_per_param-9": ("plan", {**_LSB_PLAN, "bits_per_param": 9}, "'bits_per_param'"),
    "plan-bits_per_param-40": ("plan", {**_LSB_PLAN, "bits_per_param": 40}, "'bits_per_param'"),
    "ss-seed-null": ("plan", _ss_plan(seed=None), "'seed'"),
    "ss-seed-bool": ("plan", _ss_plan(seed=True), "'seed'"),
    "ss-gamma-zero": ("plan", _ss_plan(gamma=0), "'gamma'"),
    "ss-gamma-string": ("plan", _ss_plan(gamma="0.009"), "'gamma'"),
    "ss-payload_bits-not-bytes": ("plan", _ss_plan(payload_bits=12), "'payload_bits'"),
    "ss-ecc-unknown": ("plan", _ss_plan(ecc="golay"), "'ecc'"),
    "ss-eligible-string": ("plan", _ss_plan(eligible="fc1.weight"), "'eligible'"),
    "ss-eligible-not-in-carrier": ("plan", _ss_plan(eligible=["fc1.weight", "wq"]), "'wq'"),
    "ss-host_n-missing": ("plan", _ss_plan(host_n=_DROP), "'host_n'"),
    "ss-host_n-zero": ("plan", _ss_plan(host_n=0), "'host_n'"),
    "ss-host_n-mismatch": ("plan", _ss_plan(host_n=321), "host_n"),
    "ss-sha256-not-hex": ("plan", _ss_plan(payload_sha256="z" * 64), "'payload_sha256'"),
    "ss-block-a-list": ("plan", {**_ss_plan(), "ss": [_SS_FIELDS]}, "'ss'"),
    "ss-seed-disagrees": ("plan", _ss_plan(seed=2), "'seed'"),
    "ss-ecc-disagrees": ("plan", _ss_plan(ecc="hamming74"), "'ecc'"),
    "ss-sha256-disagrees": ("plan", _ss_plan(payload_sha256="f" * 64), "'payload_sha256'"),
    "ss-payload_len-disagrees": ("plan", {**_ss_plan(), "payload_len": 2}, "'payload_len'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SIDECARS))
def test_malformed_sidecar_exit_1(ws, tmp_path, case):
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
        "plan": ["evaluate", "--carrier", ws["mlp"], "--plan", bad,
                 "--disrupt", "none", "--output", out],
    }[role]
    proc = _fresh_interpreter([sys.executable, "-m", "neuperm"], *argv, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr and names in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
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
    real = stego._chip_block

    def failing_block(*args):
        if threading.get_ident() != caller:
            raise ValueError("chip block failed on a helper")
        return real(*args)

    monkeypatch.setattr(stego, "_chip_block", failing_block)
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
