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

import numpy as np
import pytest
from conftest import fail_chip_sweeps, random_payload, refusal, scrambled

import neuperm
from neuperm import cli, inference, stego, sweep
from neuperm.archive import (
    ArchiveReader, ModelArchive, archive_digest, load_archive, save_archive, write_archive,
)
from neuperm.cli import main
from neuperm.descriptor import descriptor_to_dict, parse_descriptor
from neuperm.disrupt import DisruptorConfig, apply_disruptor, parse_disruptor
from neuperm.fixtures import (
    _dense_chain, llama32_1b_descriptor, ss_host, toy_cnn, toy_gqa, toy_mlp, vgg11_descriptor,
)
from neuperm.inference import (
    LayerSpec, ToyNetwork, forward, network_to_dict, normalized_output_deviation, parse_network,
    random_inputs,
)
from neuperm.rng import derive_seed
from neuperm.stego import AttackPlan, _bit_slots, lsb_embed, parse_ecc, sign_embed, ss_embed
from neuperm.tensor import Tensor

_SRC = Path(neuperm.__file__).resolve().parents[1]

MANIFEST_KEYS = {
    "argv", "command", "details", "inputs", "outputs", "seed", "timestamp_utc", "tool",
}


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


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _deviation(net, a, b, probes) -> float:
    """normalized_output_deviation as it ran before verification streamed:
    every layer of one probe through `forward`, then the next probe."""
    worst = 0.0
    for x in probes:
        ya, yb = forward(net, a, x), forward(net, b, x)
        scale = max(1.0, float(np.max(np.abs(ya))))
        worst = float(np.maximum(worst, float(np.max(np.abs(ya - yb))) / scale))
    return worst


def _verify_host(dtype: str) -> tuple[ModelArchive, list]:
    """A dense chain 70 -> 150 -> 100 -> 45 with biases, no width a multiple
    of 64, stored in `dtype`, and the (weight, bias) names of its layers."""
    rng = np.random.default_rng(27)
    widths, tensors, names = [70, 150, 100, 45], {}, []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        tensors[f"w{i}"] = Tensor.adopt((rng.standard_normal((fan_out, fan_in))
                                         / np.sqrt(fan_in)).astype(dtype))
        tensors[f"b{i}"] = Tensor.adopt(rng.standard_normal(fan_out).astype(dtype))
        names.append((f"w{i}", f"b{i}"))
    return ModelArchive(tensors), names


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("shape", [(70,), (3, 70)], ids=["vector", "rows"])
@pytest.mark.parametrize("dtype", ["float32", "float16"])
def test_blocked_verify_deviation_equals_the_forward_one(tmp_path, monkeypatch, dtype, shape,
                                                        source):
    """normalized_output_deviation runs a dense layer over vector probes with
    its weight in blocks of 64 rows (three for the 150-row weight), from a
    file never reading a weight whole, and gives the deviation of _deviation
    on one BLAS thread bit for bit, in float32 and float16, from files and
    in memory. Probes of several rows go through the whole weight."""
    monkeypatch.setattr(inference, "_BLOCK_BYTES", 1)
    a, names = _verify_host(dtype)
    b = apply_disruptor(a, DisruptorConfig("noise", 1e-3), seed=5)[0]
    layers = []
    for weight, bias in names:
        layers += [LayerSpec("dense", {"weight": weight, "bias": bias}), LayerSpec("relu")]
    net = ToyNetwork(tuple(layers[:-1]), "vector", shape)
    probes = random_inputs(net, 5, 3)
    with sweep.blas_single_thread():
        want = _deviation(net, a, b, probes)
    assert want > 0
    if source == "memory":
        assert normalized_output_deviation(net, a, b, probes).hex() == want.hex()
        return
    save_archive(a, tmp_path / "a.safetensors")
    save_archive(b, tmp_path / "b.safetensors")
    wholes, real = [], ArchiveReader.read
    monkeypatch.setattr(ArchiveReader, "read", lambda self, n: wholes.append(n) or real(self, n))
    with ArchiveReader(tmp_path / "a.safetensors") as ra, \
            ArchiveReader(tmp_path / "b.safetensors") as rb:
        assert normalized_output_deviation(net, ra, rb, probes).hex() == want.hex()
    weights = sorted([w for w, _ in names] * 2)
    assert sorted(n for n in wholes if n.startswith("w")) == ([] if len(shape) == 1 else weights)


@pytest.mark.parametrize("layout", ["canonical", "scrambled", "output-is-input"])
@pytest.mark.parametrize("spec", ["none", "noise:1e-4", "prune:0.05", "neuperm", "neuperm:0.6"])
@pytest.mark.parametrize("model", ["mlp", "cnn", "gqa"])
def test_streamed_sanitize_equals_the_in_memory_rewrite(ws, tmp_path, capsys, model, spec,
                                                       layout):
    """sanitize streams one tensor at a time, and writes the canonical bytes of
    apply_disruptor over the whole archive in memory. Its manifest holds the
    coverage, the inputs' and output's digests and the verify deviation
    computed in memory, bit for bit; a rewrite that fails verification exits
    2 with that deviation and leaves the input as it was. The input may store
    its tensors out of name order with gaps, or be overwritten by the output."""
    raw = ws[model].read_bytes()
    if layout == "scrambled":
        raw = scrambled(load_archive(ws[model]))
    src = tmp_path / "in.safetensors"
    src.write_bytes(raw)
    original = load_archive(src)
    desc_path, net_path = ws[f"{model}.desc"], ws[f"{model}.net"]
    net = parse_network(net_path.read_bytes())
    want, coverage = apply_disruptor(original, parse_disruptor(spec), seed=31,
                                     descriptor=parse_descriptor(desc_path.read_bytes(), original))
    dev = _deviation(net, original, want, random_inputs(net, 20, derive_seed(31, "verify/probes")))
    out = src if layout == "output-is-input" else tmp_path / "out.safetensors"
    manifest = tmp_path / "run.json"
    argv = ["sanitize", "--input", src, "--output", out, "--disrupt", spec,
            "--descriptor", desc_path, "--seed", "31", "--manifest", manifest]
    verify = ["--verify", "--net", net_path]
    passes = dev <= (1e-3 if model == "gqa" else 1e-5)
    if not passes:
        assert run(*argv, *verify) == 2
        assert f"max normalized deviation {dev:.3e} exceeds" in capsys.readouterr().err
        assert src.read_bytes() == raw and not manifest.exists()
        verify = []
    assert run(*argv, *verify) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert out.read_bytes() == write_archive(want)
    doc = json.loads(manifest.read_text())
    details = doc["details"]
    assert details.get("verify_max_deviation") == (dev if passes else None)
    assert details.get("coverage") == (None if coverage is None else {
        "total_params": coverage.total_params, "changed_params": coverage.changed_params,
        "fraction": coverage.fraction, "percent": coverage.percent,
        "applied_sites": list(coverage.applied_sites)})
    inputs = {str(src): hashlib.sha256(raw).hexdigest(), str(desc_path): _sha256(desc_path)}
    if passes:
        inputs[str(net_path)] = _sha256(net_path)
    assert doc["inputs"] == inputs
    digest = archive_digest(want)
    assert doc["outputs"] == {str(out): digest} and details["output_digest"] == digest


def _reads_nothing(monkeypatch):
    """Record every tensor read, input hash and staged output from here on."""
    seen = []

    def spy(owner, name):
        real = getattr(owner, name)

        def recorded(*args):
            seen.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, recorded)

    spy(ArchiveReader, "read")
    spy(ArchiveReader, "digest")
    spy(cli._Outputs, "_stage")
    return seen


@pytest.mark.parametrize("sidecars,text", [
    ("--descriptor @mlp.desc --verify", "error: no net sidecar at "),
    ("--descriptor @mlp.desc --verify --net @bad", "error: net sidecar is not valid JSON"),
    ("--descriptor @mlp.desc --verify --net @bad_net",
     "error: layer 0 (dense) names tensors the archive lacks: ['nope']"),
    ("--descriptor @bad --verify --net @mlp.net", "error: descriptor is not valid JSON"),
    ("--descriptor @bad_desc", "error: total_params 7 != archive parameter count 450"),
    ("", "error: the permutation pass needs an architecture descriptor"),
], ids=["net-missing", "net-not-json", "net-names-missing-tensor", "desc-not-json",
        "desc-misfit", "desc-missing"])
def test_sanitize_refuses_bad_sidecars_before_reading_a_tensor(ws, tmp_path, capsys,
                                                               monkeypatch, sidecars, text):
    """A missing or malformed net sidecar or descriptor is refused from the
    archive header alone: no tensor is read, the input is not hashed, and no
    output is staged."""
    files = {"bad": "{", "bad_net": json.dumps(_one_layer("vector", [8], "dense",
                                                          {"weight": "nope"})),
             "bad_desc": json.dumps({"sites": [], "total_params": 7})}
    paths = dict(ws)
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(content)
    work = tmp_path / "work"
    work.mkdir()
    seen = _reads_nothing(monkeypatch)
    argv = ["sanitize", "--input", ws["mlp"], "--output", "out", "--disrupt", "neuperm",
            "--seed", "3", *(paths[a[1:]] if a[0] == "@" else a for a in sidecars.split())]
    code, line = refusal(argv, work, capsys)
    assert code == 1 and line.startswith(text), line
    assert seen == []


def test_sanitize_refuses_an_input_cut_short(ws, tmp_path, capsys, monkeypatch):
    """An input that shrinks after its header was read ends sanitize with
    exit 1 and an error naming the tensor cut short; nothing is written."""
    src = tmp_path / "in.safetensors"
    shutil.copy(ws["mlp"], src)
    last = sorted(load_archive(src).tensors)[-1]  # stored last, as canonical files are
    real = cli.tensor_rewrite

    def shrinking(*args, **kwargs):
        os.truncate(src, src.stat().st_size - 4)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "tensor_rewrite", shrinking)
    work = tmp_path / "work"
    work.mkdir()
    code, line = refusal(["sanitize", "--input", src, "--output", "out", "--disrupt", "none",
                          "--manifest", "run.json"], work, capsys)
    assert code == 1 and line.startswith(f"error: tensor {last!r} is cut short: "), line


@pytest.mark.parametrize("broken, text", [
    (lambda block: block[:-1], "its blocks hold 127 of the 128 rows"),
    (lambda block: block[:, :-1], "a block of float32 (128, 127) does not fit"),
], ids=["rows", "columns"])
def test_sanitize_refuses_blocks_that_miss_the_header(ws, tmp_path, capsys, monkeypatch,
                                                      broken, text):
    """A rewrite whose blocks hold fewer rows than the header says, or a
    block of another trailing shape, ends sanitize with exit 1 and an error
    naming the tensor; nothing is written."""
    real = cli.tensor_rewrite
    name = sorted(load_archive(ws["host"]).tensors)[1]

    def patched(*args, **kwargs):
        rewrite, coverage = real(*args, **kwargs)

        def cut(n, t):
            blocks = rewrite(n, t)
            return [broken(block) for block in blocks] if n == name else blocks

        return cut, coverage

    monkeypatch.setattr(cli, "tensor_rewrite", patched)
    code, line = refusal(["sanitize", "--input", ws["host"], "--output", "out",
                          "--disrupt", "neuperm", "--descriptor", ws["host.desc"],
                          "--seed", "3", "--manifest", "run.json"], tmp_path, capsys)
    assert code == 1 and line.startswith(f"error: tensor {name!r}: {text}"), line


def _thread_start_fails_at(monkeypatch, at: int) -> list:
    """Make the at-th Thread.start from now on raise the RuntimeError
    CPython raises when no thread can start (0: none does); returns the
    threads asked to start."""
    real, asked = threading.Thread.start, []

    def start(thread):
        asked.append(thread)
        if len(asked) == at:
            raise RuntimeError("can't start new thread")
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return asked


@pytest.mark.parametrize("command", ["sanitize", "attack", "evaluate"])
def test_a_helper_thread_that_cannot_start_is_one_error_line(ws, tmp_path, capsys, monkeypatch,
                                                              command):
    """sanitize --verify, attack ss and ss evaluate, with the k-th helper
    thread failing to start for every k the command reaches: exit 1 with
    one error line, every helper already started stopped, no file left and
    OpenBLAS back at its thread count. Sweeps run three threads, so a
    failed start can find helpers running."""
    argv = {
        "sanitize": ["sanitize", "--input", ws["host"], "--output", "out", "--disrupt",
                     "neuperm", "--descriptor", ws["host.desc"], "--seed", "3", "--verify",
                     "--net", ws["host.net"], "--manifest", "run.json"],
        "attack": ["attack", "--input", ws["host"], "--output", "out", "--attack", "ss:0.02",
                   "--payload", ws["payload"], "--seed", "9", "--plan", "plan.json"],
        "evaluate": ["evaluate", "--carrier", ws["ss.carrier"], "--plan", ws["ss.plan"],
                     "--disrupt", "none", "--disrupt", "neuperm", "--descriptor",
                     ws["host.desc"], "--trials", "2", "--seed", "4", "--output", "r.csv"],
    }[command]
    monkeypatch.setattr(sweep, "workers", lambda: 3)
    blas = sweep._blas_thread_calls()
    before = blas[0]() if blas else None
    work = tmp_path / "ok"
    work.mkdir()
    asked = _thread_start_fails_at(monkeypatch, 0)
    assert refusal(argv, work, capsys) == (0, "")
    starts = len(asked)
    assert starts >= (2 if command == "sanitize" else 3)
    for at in range(1, starts + 1):
        _thread_start_fails_at(monkeypatch, at)
        work = tmp_path / str(at)
        work.mkdir()
        code, line = refusal(argv, work, capsys)
        assert (code, line) == (1, "error: cannot start a helper thread: can't start new "
                                   "thread"), at
        assert (blas[0]() if blas else None) == before


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


# --------------------------------------------------------------- attack

@pytest.mark.parametrize("layout", ["scrambled", "output-is-input"])
@pytest.mark.parametrize("attack", ["lsb:2", "sign", "ss:0.02"])
def test_streamed_attack_equals_the_in_memory_embed(ws, tmp_path, capsys, attack, layout):
    """attack makes the carrier one tensor at a time and writes the canonical
    bytes of the embed over the whole archive in memory, also from an input
    that stores its tensors out of name order with gaps, or that the output
    overwrites; the manifest holds the input's digest."""
    raw = ws["host"].read_bytes()
    if layout == "scrambled":
        raw = scrambled(load_archive(ws["host"]))
    src = tmp_path / "in.safetensors"
    src.write_bytes(raw)
    out = src if layout == "output-is-input" else tmp_path / "out.safetensors"
    original, payload = load_archive(src), ws["payload"].read_bytes()
    kind, param = cli._parse_attack_spec(attack)
    plan = AttackPlan.for_payload(kind, payload, original, seed=9, ecc=parse_ecc("none"),
                                  param=param)
    want = {"lsb": lsb_embed, "sign": sign_embed, "ss": ss_embed}[kind](original, payload, plan)
    manifest = tmp_path / "run.json"
    assert run("attack", "--input", src, "--output", out, "--attack", attack, "--payload",
               ws["payload"], "--seed", "9", "--manifest", manifest) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert out.read_bytes() == write_archive(want)
    doc = json.loads(manifest.read_text())
    assert doc["inputs"] == {str(src): hashlib.sha256(raw).hexdigest(),
                             str(ws["payload"]): plan.payload_sha256}
    assert doc["outputs"] == {str(out): archive_digest(want)}


def test_failed_commit_removes_the_outputs_already_moved(ws, tmp_path, capsys, monkeypatch):
    """When moving attack's plan onto its target fails after the carrier was
    moved onto its own, the command exits 1 with one error line naming the
    plan, and the carrier, the plan and every staged file are gone: a failed
    command leaves no partial output."""
    real, moved = os.replace, []

    def replace(src, dst):
        moved.append(dst)
        if len(moved) == 2:
            raise PermissionError(13, "Permission denied", src)
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    work = tmp_path / "work"
    work.mkdir()
    code, line = refusal(["attack", "--input", ws["host"], "--output", "carrier",
                          "--attack", "sign", "--payload", ws["payload"], "--seed", "9",
                          "--plan", "plan.json"], work, capsys)
    assert code == 1 and line == "error: [Errno 13] Permission denied: 'plan.json'", line
    assert moved == ["carrier", "plan.json"]


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


#: (attack, ecc, seed, sha256 of the evaluate CSV, sha256 of the carrier) per
#: method on the host carrier; the CSV digests were computed before the plan of
#: every method became one type, the carrier digests while attack still built
#: the whole carrier in memory
_FROZEN_EVALUATE = {
    "lsb": ("lsb:2", "hamming74", "7",
        "8803b938f702a1e38b37b9aa93624c92e9035584bc36bff24f0098508dbe5d7a",
        "c2ab8766fbbf855f7330206b0a23ea61b9edb2d881677f526200ec7040241446"),
    "sign": ("sign", "repetition:3", "9",
        "8d4a367e5cb0724566eda20a350afb5d65267f2b1e866b2ae824f6db2433b6ee",
        "22d36ffe9f3625dc3210ced266fd72c9353a3dc9a8ddcfc025df405faf748809"),
    "ss": ("ss:0.02", "repetition:3", "13",
        "068a7304983bf7af7d074c3fb8b95872a622e6bebdecf0db1c402151dc40c002",
        "d37de1e3e2f02d7f58fd9f5fad06c2b8f6b64759435caed1b2f7d140d0ed0d83"),
}


def _frozen_evaluate_digest(ws, tmp_path, method) -> str:
    """sha256 of the CSV that the frozen attack and evaluate of `method`
    write, once the carrier the attack wrote has its frozen sha256."""
    attack, ecc, seed, _, carrier_sha256 = _FROZEN_EVALUATE[method]
    carrier, plan, report = (tmp_path / n for n in ("carrier.safetensors", "plan.json", "r.csv"))
    assert run("attack", "--input", ws["host"], "--output", carrier, "--attack", attack,
               "--ecc", ecc, "--payload", ws["payload"], "--seed", seed, "--plan", plan) == 0
    assert hashlib.sha256(carrier.read_bytes()).hexdigest() == carrier_sha256
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
    """With room for only `rows` rows of the largest eligible tensor, the
    six ss variants are despread in groups, one chip sweep each, and the CSV
    bytes stay frozen."""
    largest = max(t.size for t in load_archive(ws["host"]).tensors.values() if t.data.ndim >= 2)
    monkeypatch.setattr(stego, "_GROUP_BYTES", rows * 4 * largest)
    assert _frozen_evaluate_digest(ws, tmp_path, "ss") == _FROZEN_EVALUATE["ss"][3]


@pytest.mark.parametrize("rows", [None, 5])
@pytest.mark.parametrize("method", ["ss", "lsb", "sign"])
def test_evaluate_reads_each_tensor_once_per_group(ws, tmp_path, capsys, monkeypatch,
                                                   method, rows):
    """Across 12 variants, evaluate reads each tensor that extraction needs
    once per group of variants, in one group or, with room for only 5
    variants, in three: every eligible tensor of an ss plan, and every
    tensor holding slots of an lsb or sign plan. Reading a tensor once per
    variant read each 12 times."""
    carrier, plan_path = ws[f"{method}.carrier"], ws[f"{method}.plan"]
    plan = AttackPlan.from_dict(json.loads(plan_path.read_text()))
    with ArchiveReader(carrier) as source:
        if method == "ss":
            names = plan.eligible
            per_variant = 4 * max(source.layout[n].size for n in names)
        else:
            names = [name for name, _, _ in _bit_slots(source, plan)]
            per_variant = plan.coded_bits
    if rows is not None:
        monkeypatch.setattr(stego, "_GROUP_BYTES", rows * per_variant)
    reads, real_read = {}, ArchiveReader.read

    def counting(self, name):
        reads[name] = reads.get(name, 0) + 1
        return real_read(self, name)

    monkeypatch.setattr(ArchiveReader, "read", counting)
    desc = ws["host.desc" if method == "ss" else "mlp.desc"]
    assert run("evaluate", "--carrier", carrier, "--plan", plan_path, "--disrupt", "none",
               "--disrupt", "noise:0.0001", "--disrupt", "prune:0.05", "--disrupt", "neuperm:1",
               "--descriptor", desc, "--trials", "5", "--seed", "5",
               "--output", tmp_path / "r.csv") == 0
    assert capsys.readouterr().out.startswith("evaluate 12 attempts")
    assert reads == {name: 1 if rows is None else 3 for name in names}


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


def _within(allowance: int, *argv, cwd):
    """Run the CLI in a child process whose address space may grow by
    `allowance` bytes once neuperm.cli is imported. The child runs on at
    most two CPUs with OpenBLAS at one thread and one malloc arena
    (MALLOC_ARENA_MAX=1), so the cap bounds the command's arrays, not
    per-thread reservations."""
    child = (
        "import os, resource, sys\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "if hasattr(os, 'sched_setaffinity'):\n"
        "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
        "from neuperm.cli import main\n"
        "with open('/proc/self/statm') as fh:\n"
        "    cap = int(fh.read().split()[0]) * os.sysconf('SC_PAGE_SIZE') + int(sys.argv[1])\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    env = {**os.environ, "MALLOC_ARENA_MAX": "1"}
    return _fresh_interpreter([sys.executable, "-c", child], allowance, *argv, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def eight_layer_host(tmp_path_factory):
    """A 128 MiB host of eight 16 MiB float32 weights, written once with its
    descriptor and net sidecar, for the tests that cap the address space
    below two copies of it."""
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("the cap is sized from /proc/self/statm")
    root = tmp_path_factory.mktemp("eight")
    width, layers = 2048, 8
    rng = np.random.default_rng(24)
    archive = ModelArchive({f"fc{i}.weight": Tensor.adopt(
        rng.standard_normal((width, width), dtype=np.float32)) for i in range(1, layers + 1)})
    desc, net = _dense_chain(archive, [width] * (layers + 1))
    host = root / "host.safetensors"
    save_archive(archive, host)
    (root / "host.desc.json").write_text(json.dumps(descriptor_to_dict(desc)))
    (root / "host.safetensors.net.json").write_text(json.dumps(network_to_dict(net)))
    return host


def test_sanitize_verify_holds_one_copy_of_the_model(tmp_path, eight_layer_host):
    """sanitize --verify on the 128 MiB host, in an address space that may
    grow by 1.5 times the host: two copies of the model do not fit, one
    tensor at a time does."""
    host = eight_layer_host
    proc = _within(3 * host.stat().st_size // 2, "sanitize", "--input", host, "--output",
                   "clean.safetensors", "--disrupt", "neuperm", "--descriptor",
                   host.parent / "host.desc.json", "--seed", "5", "--verify", "--probes", "4",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("sanitize neuperm:1 seed=5 coverage=100.00% verified(")
    assert (tmp_path / "clean.safetensors").stat().st_size == host.stat().st_size


@pytest.mark.parametrize("command", ["attack lsb:2", "attack ss", "evaluate", "evaluate ss"])
def test_attack_and_evaluate_hold_one_copy_of_the_model(tmp_path, eight_layer_host, command):
    """attack (lsb:2 with a 4 KiB payload, ss with a 16-byte one) and
    evaluate of an lsb plan under none and neuperm:1, on the 128 MiB host in
    an address space that may grow by 1.5 times the host: each reads and
    writes one tensor at a time, where holding the model and a second copy
    of it (the carrier, an ss host vector or a disrupted variant) does not
    fit. So does evaluate of the ss plan under none and neuperm:1 --trials
    3: it stacks the four variants of one 16 MiB tensor at a time, where two
    stacked whole host vectors, 2.0 times the host, do not fit."""
    host = eight_layer_host
    ss = command.endswith(" ss")
    payload = tmp_path / "payload.bin"
    payload.write_bytes(random_payload(80, 16 if ss else 4096))
    attack = ["attack", "--input", host, "--payload", payload, "--seed", "3",
              "--attack", "ss:0.001" if ss else "lsb:2"]
    if command.startswith("evaluate"):
        assert run(*attack, "--output", tmp_path / "carrier.safetensors",
                   "--plan", tmp_path / "plan.json") == 0
        argv = ["evaluate", "--carrier", "carrier.safetensors", "--plan", "plan.json",
                "--disrupt", "none", "--disrupt", "neuperm:1", "--descriptor",
                host.parent / "host.desc.json", "--trials", "3" if ss else "1",
                "--seed", "4", "--output", "r.csv"]
    else:
        argv = [*attack, "--output", "carrier.safetensors"]
    proc = _within(3 * host.stat().st_size // 2, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    if command.startswith("evaluate"):
        assert proc.stdout == f"evaluate {4 if ss else 2} attempts, 1 extractions succeeded\n"
    else:
        assert proc.stdout.startswith(f"attack {attack[-1]} ecc=none seed=3")
        assert (tmp_path / "carrier.safetensors").stat().st_size == host.stat().st_size


@pytest.fixture(scope="module")
def two_tensor_host(tmp_path_factory):
    """A host of two 64 MiB float32 weights (4096 x 4096), written once with
    its descriptor and net sidecar."""
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("the cap is sized from /proc/self/statm")
    root = tmp_path_factory.mktemp("two")
    width = 4096
    rng = np.random.default_rng(25)
    archive = ModelArchive({f"fc{i}.weight": Tensor.adopt(
        rng.standard_normal((width, width), dtype=np.float32)) for i in (1, 2)})
    desc, net = _dense_chain(archive, [width] * 3)
    host = root / "host.safetensors"
    save_archive(archive, host)
    (root / "host.desc.json").write_text(json.dumps(descriptor_to_dict(desc)))
    (root / "host.safetensors.net.json").write_text(json.dumps(network_to_dict(net)))
    return host


def _sanitize_within(allowance: int, host, disrupt: str, cwd) -> None:
    proc = _within(allowance, "sanitize", "--input", host, "--output", "clean.safetensors",
                   "--disrupt", disrupt, "--descriptor", host.parent / "host.desc.json",
                   "--seed", "5", "--verify", "--probes", "4", cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(f"sanitize {disrupt}")
    assert "verified(" in proc.stdout
    assert (cwd / "clean.safetensors").stat().st_size == host.stat().st_size


@pytest.mark.parametrize("disrupt", ["neuperm", "none"])
def test_sanitize_verify_holds_one_tensor(tmp_path, two_tensor_host, disrupt):
    """sanitize --verify on a host of two 64 MiB weights, in an address
    space that may grow by 2.25 times one of them: one tensor, its blocks
    and OpenBLAS's buffer fit (from about 1.75 times, on a 2-vCPU Linux
    box, while sanitize read each tensor whole), but two tensors at once do
    not: holding a tensor and its permuted copy, one layer's weight of each
    side in --verify, or a written tensor while the next is read, needed
    about 2.75 times."""
    _sanitize_within(9 * 4096 * 4096, two_tensor_host, disrupt, tmp_path)


@pytest.mark.parametrize("disrupt", ["neuperm", "none"])
def test_sanitize_verify_holds_less_than_one_tensor(tmp_path, two_tensor_host, disrupt):
    """sanitize --verify on the host of two 64 MiB weights, in an address
    space that may grow by 0.875 times one of them: the rewrite reads,
    writes and hashes row blocks, and --verify runs each dense weight's row
    blocks through one reused buffer, so neither holds a tensor. It fits
    from about 49 MiB (0.77 times, on a 2-vCPU Linux box), nearly all of it
    OpenBLAS's buffer and the stacks of the two hashing threads; reading
    each tensor whole needed about 112 MiB (1.75 times)."""
    _sanitize_within(7 * 4096 * 4096 // 2, two_tensor_host, disrupt, tmp_path)


def test_attack_lsb_holds_row_blocks(tmp_path, eight_layer_host):
    """attack lsb:2 with a 4 KiB payload on the 128 MiB host of 16 MiB
    weights, in an address space that may grow by 32 MiB: the carrier is
    read, copied and written in row blocks. It fits from about 24 MiB (on a
    2-vCPU Linux box), of which the stacks of the two hashing threads take
    16 MiB and the input hash's read buffer 4 MiB, so no allowance below one
    16 MiB tensor fits it; copying each tensor whole needed about 52 MiB."""
    payload = tmp_path / "payload.bin"
    payload.write_bytes(random_payload(80, 4096))
    proc = _within(32 << 20, "attack", "--input", eight_layer_host, "--payload", payload,
                   "--seed", "3", "--attack", "lsb:2", "--output", "carrier.safetensors",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("attack lsb:2 ecc=none seed=3")
    assert (tmp_path / "carrier.safetensors").stat().st_size == eight_layer_host.stat().st_size


def test_attack_ss_holds_row_blocks(tmp_path, eight_layer_host):
    """attack ss:0.001 with a 16-byte payload on the 128 MiB host of 16 MiB
    weights, in an address space that may grow by 56 MiB: the chips are
    added to float32 copies of the carrier's row blocks as they are read
    and written. It fits from about 48 MiB (on a 2-vCPU Linux box), where
    the stacks of the two hashing threads and of the chip sweep's helper
    thread reserve 8 MiB each; adding the chips to a float32 copy of each
    16 MiB tensor needed about 64 MiB."""
    payload = tmp_path / "payload.bin"
    payload.write_bytes(random_payload(80, 16))
    proc = _within(56 << 20, "attack", "--input", eight_layer_host, "--payload", payload,
                   "--seed", "3", "--attack", "ss:0.001", "--output", "carrier.safetensors",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("attack ss:0.001 ecc=none seed=3")
    assert (tmp_path / "carrier.safetensors").stat().st_size == eight_layer_host.stat().st_size


@pytest.mark.parametrize("attack", ["lsb:2", "sign"])
def test_evaluate_bits_holds_one_tensor(tmp_path, eight_layer_host, attack):
    """evaluate of an lsb:2 or sign plan (4 KiB payload) under none and
    neuperm:1 --trials 3 on the 128 MiB host of 16 MiB weights, in an
    address space that may grow by 40 MiB: each tensor is read once and each
    variant's slot fields are taken from its row blocks. It fits from 32 MiB
    and fails at 28 (on a 2-vCPU Linux box); assembling each variant's
    rewritten tensor beside the one read needed 48 MiB and failed at 44, so
    the allowance sits halfway between."""
    payload = tmp_path / "payload.bin"
    payload.write_bytes(random_payload(80, 4096))
    assert run("attack", "--input", eight_layer_host, "--payload", payload, "--seed", "3",
               "--attack", attack, "--output", tmp_path / "carrier.safetensors",
               "--plan", tmp_path / "plan.json") == 0
    proc = _within(40 << 20, "evaluate", "--carrier", "carrier.safetensors", "--plan",
                   "plan.json", "--disrupt", "none", "--disrupt", "neuperm:1", "--descriptor",
                   eight_layer_host.parent / "host.desc.json", "--trials", "3", "--seed", "4",
                   "--output", "r.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "evaluate 4 attempts, 1 extractions succeeded\n"


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


@pytest.mark.parametrize("attack,ecc,slots", [("lsb:1", "none", 128_000_000),
                                              ("sign", "none", 128_000_000),
                                              ("lsb:1", "repetition:5", 640_000_000)])
def test_attack_refuses_an_oversized_bit_payload_in_1gb(tmp_path, attack, ecc, slots):
    """A 16 MB payload needs more slots than the 2^20-parameter host has:
    attack refuses it when it makes the plan, before any bit is coded, in a
    1 GB address space. Coding and packing the bits first peaked at 1.8 GB,
    and at 7.7 GB with repetition:5."""
    pytest.importorskip("resource")
    archive, _, _ = ss_host()
    save_archive(archive, tmp_path / "host.safetensors")
    (tmp_path / "p.bin").write_bytes(np.random.default_rng(81).bytes(16_000_000))
    proc = _under_1gb("attack", "--input", "host.safetensors", "--output", "carrier.safetensors",
                      "--attack", attack, "--ecc", ecc, "--payload", "p.bin", "--seed", "1",
                      cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == f"error: need {slots} positions but host has only 1048576\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["host.safetensors", "p.bin"]


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


# ------------------------------------------------------------- refusals

def _r(argv: str, code: int, text: str, **files):
    """One refusal: the command, the exit code it must end with, and the text
    of its error line. In `argv`, @name is an input: a file the row writes
    from `files` (JSON unless text or bytes, or made from `ws` by a
    callable), else a `ws` file; any other path lies in the work directory.
    A `text` that starts as an error line does must be the whole line."""
    return argv.split(), code, text, files


def _reads(role: str, model: str = "mlp") -> str:
    """A command that reads @bad as its desc(riptor), net (sidecar) or plan;
    with well-formed input each of them exits 0."""
    if role == "plan":
        return ("evaluate --carrier @sign.carrier --plan @bad --disrupt neuperm "
                "--descriptor @mlp.desc --seed 5 --output out")
    sidecars = {"desc": f"--descriptor @bad --net @{model}.net",
                "net": f"--descriptor @{model}.desc --net @bad"}[role]
    return f"sanitize --input @{model} --output out --disrupt neuperm --seed 3 --verify {sidecars}"


def _bad(role: str, doc, text: str, model: str = "mlp", code: int = 1):
    """The refusal of `doc` as the `role` input of `_reads(role, model)`."""
    return _r(_reads(role, model), code, text, bad=doc)


def _repeated(role: str, key: str, value: str):
    """The refusal of a well-formed `role` input whose object ends by giving
    `key` a second time, as `value`."""
    stem = {"desc": "mlp.desc", "net": "mlp.net", "plan": "sign.plan"}[role]
    return _bad(role, lambda ws: ws[stem].read_text().rstrip()[:-1] + f', "{key}": {value}}}',
                f"repeats the key '{key}'")


def _fixture_net(fixture, edits=None, **inputs) -> dict:
    """The net sidecar of a toy fixture with `edits`, {layer index: {key:
    value}}, applied (a string value names the tensor of a param role, a
    number is a hyper-parameter) and `inputs` put in its input object."""
    doc = network_to_dict(fixture()[2])
    for i, fields in (edits or {}).items():
        for key, value in fields.items():
            doc["layers"][i]["params" if isinstance(value, str) else "hyper"][key] = value
    doc["input"].update(inputs)
    return doc


def _one_layer(kind: str, shape: list, layer: str, params=None, **hyper) -> dict:
    """A net sidecar of one `layer` on an input of the given kind and shape."""
    return {"input": {"kind": kind, "shape": shape},
            "layers": [{"kind": layer, "params": params or {}, "hyper": hyper}]}


def _image_net(layer: str, **hyper) -> dict:
    """One layer on a 1x4x4 image; conv2d borrows the mlp's first weight."""
    params = {"weight": "fc1.weight"} if layer == "conv2d" else None
    return _one_layer("image", [1, 4, 4], layer, params, **hyper)


def _gqa_site(**gqa):
    """A descriptor holding one attn_gqa site with the given gqa object."""
    return {"sites": [{"site_id": "attn", "kind": "attn_gqa", "n": 2, "produce": [["wq", 0]],
                       "gqa": gqa}], "total_params": 450}


_TABLE = {"table": "fc1.weight"}
_GQA_NORMS = (1, 3, 7)  # layer indices of the gqa's three layernorms
_BN1 = {role: f"bn1.{role}" for role in ("gamma", "beta", "running_mean", "running_var")}
_SIDE = "--manifest missing/side.json"
_NO_SIDE = "error: [Errno 2] No such file or directory: 'missing/side.json'"

#: Every refusal that argv and input files alone bring about, each checked
#: in process by the one oracle, `refusal`. A key is the id its case runs
#: as, `test_name[case]`, or `test_name` for rows that run in turn under one
#: id; the ids are those the cases had as test functions of their own. A
#: value is one row or a list of rows.
_REFUSALS = {
    **{f"test_sanitize_probes_below_one_exit_1[{n}]": _r(
        "sanitize --input @mlp --output clean --disrupt neuperm --descriptor @mlp.desc "
        f"--seed 31 --verify --net @mlp.net --probes {n} --manifest run.json", 1,
        "error: --probes must be >= 1") for n in ("0", "-2")},
    "test_sanitize_verify_failure_exit_2_no_output": _r(
        "sanitize --input @mlp --output never --disrupt noise:0.5 --seed 3 --verify "
        "--net @mlp.net", 2, "outputs diverged"),
    # the input hash is joined before --verify fails
    "test_sanitize_verify_failure_leaves_no_helper_thread": _r(
        "sanitize --input @host --output never --disrupt noise:0.5 --seed 3 --verify "
        "--net @host.net --manifest run.json", 2, "outputs diverged"),
    "test_sanitize_missing_net_sidecar": _r(
        "sanitize --input @mlp --output o --disrupt none --verify", 1, "no net sidecar at"),
    "test_sanitize_unknown_disruptor_exit_1": _r(
        "sanitize --input @mlp --output never --disrupt bogus:1", 1,
        "error: unknown disruptor spec 'bogus:1'"),
    # a NaN or infinite sigma would write an archive of NaN or inf parameters
    **{f"test_sanitize_non_finite_noise_exit_1[{sigma}]": _r(
        f"sanitize --input @mlp --output never --disrupt noise:{sigma}", 1,
        "error: noise sigma must be finite and >= 0") for sigma in ("nan", "inf")},
    "test_sanitize_corrupt_archive_exit_1": _r(
        "sanitize --input @junk --output never --disrupt none", 1,
        "error: header length 18446744073709551615 is implausibly large (at byte 0)",
        junk=b"\xff" * 64),
    "test_usage_error_exit_1": [
        _r("sanitize --output x", 1, "neuperm sanitize: error: the following arguments are "
           "required: --input, --disrupt"),
        _r("frobnicate", 1, "invalid choice: 'frobnicate'"),
    ],
    "test_attack_capacity_exit_3_no_output": _r(
        "attack --input @mlp --output never --attack lsb --payload @big_payload --seed 1", 3,
        "error: need 1000 positions but host has only 450"),
    "test_attack_bad_specs_exit_1": [
        *(_r(f"attack --input @mlp --output never --attack {spec} --payload @payload --seed 1",
             1, text) for spec, text in (
            ("warp:3", "error: unknown attack spec 'warp:3'"),
            ("ss", "error: attack spec 'ss' needs a value"),
            ("sign:2", "error: attack spec 'sign:2' takes no value"),
        )),
        # a gamma the plan refuses is refused before anything is embedded
        *(_r(f"attack --input @host --output never --attack ss:{gamma} --payload @payload "
             f"--seed 1", 1, f"error: plan field 'gamma' must be a finite number > 0, got {got}")
          for gamma, got in (("0", "0.0"), ("-0.01", "-0.01"), ("nan", "nan"), ("inf", "inf"))),
        _r("attack --input @mlp --output never --attack lsb --payload @payload "
           "--ecc repetition:2 --seed 1", 1, "error: repetition factor must be odd and >= 1"),
    ],
    **{f"test_attack_lsb_width_out_of_range_exit_1[lsb:{w}]": _r(
        f"attack --input @mlp --output never --attack lsb:{w} --payload @payload --seed 1 "
        "--plan plan.json", 1,
        f"error: plan field 'bits_per_param' must be an integer in 1..8, got {w}")
       for w in (0, 9)},
    "test_attack_empty_payload_exit_1": _r(
        "attack --input @mlp --output o --attack lsb --payload @empty --seed 1", 1,
        "error: payload file is empty", empty=b""),
    **{f"test_bad_spec_value_quotes_spec[{flag}-{spec}-{what}]": _r(
        f"attack --input @host --output never --payload @payload --seed 1 --attack lsb "
        f"--ecc none {flag} {spec}", 1, f"error: bad value in {what} '{spec}'")
       for flag, spec, what in (("--attack", "lsb:abc", "attack spec"),
                                ("--attack", "ss:abc", "attack spec"),
                                ("--ecc", "repetition:x", "ecc spec"))},
    **{f"test_evaluate_trials_below_one_exit_1[{n}]": _r(
        "evaluate --carrier @sign.carrier --plan @sign.plan --disrupt neuperm:1 "
        f"--descriptor @mlp.desc --trials {n} --seed 5 --output report.csv", 1,
        "error: --trials must be >= 1") for n in ("0", "-3")},
    "test_evaluate_without_disrupt_exit_1": _r(
        "evaluate --carrier @sign.carrier --plan @sign.plan --output r.csv", 1,
        "error: at least one --disrupt is required"),
    # more coded bits than the host can carry fail the capacity rule of
    # `attack`, before anything is allocated for them
    "test_evaluate_ss_plan_beyond_host_exit_3": _r(
        "evaluate --carrier @ss.carrier --plan @plan --disrupt none --seed 5 --output r.csv", 3,
        "coded bits need at least",
        plan=lambda ws: {**json.loads(ws["ss.plan"].read_text()), "payload_len": 10**12}),
    # the slot count is quoted short
    **{f"test_evaluate_bit_plan_beyond_host_exit_3[{size}-{method}]": _bad(
        "plan", {**_LSB_PLAN, "method": method, "payload_len": n},
        f"error: need {need} positions but host has only 450", code=3)
       for size, n, need in (("1e11", 10**11, "800000000000"),
                             ("1e1000", 10**1000, "800000000000000000...0000000000000000000"))
       for method in ("lsb", "sign")},
    **{f"test_bound_simulate_below_one_exit_1[{n}]": _r(
        f"bound --site-sizes 2 --L 8 --simulate {n} --seed 11 --manifest bound.json", 1,
        "error: --simulate must be >= 1") for n in ("0", "-4")},
    # a game word has 64 bits
    "test_bound_simulate_site_size_above_2_64_exit_1": _r(
        "bound --site-sizes 18446744073709551617 --L 5 --simulate 10 --seed 1", 1,
        "error: the game draws 64-bit words, so site size must be <= 2^64, "
        "got 18446744073709551617"),
    "test_bound_inapplicable_exit_4": _r(
        "bound --d 0.5 --delta 0.6 --L 100", 4,
        "error: bound needs d < 1 - delta, got d=0.5 vs 1-delta=0.4"),
    "test_bound_ineffective_exit_4": _r(
        "bound --d 0.5 --L-prime 100 --L-total 1200 --L-np 900", 4, "NeuPerm-ineffective"),
    "test_bound_usage_conflicts_exit_1": [
        _r("bound --L 10", 1, "error: give exactly one of --d or --site-sizes"),
        _r("bound --d 0.5 --site-sizes 4 --L 10", 1,
           "error: give exactly one of --d or --site-sizes"),
        _r("bound --d 0.5 --L 10 --L-prime 5", 1,
           "error: --L conflicts with --L-prime/--L-total/--L-np"),
        _r("bound --d 0.5 --L 10 --delta 0.1 --ecc repetition:3", 1,
           "error: --delta conflicts with --ecc"),
        # checked before the bound is printed
        _r("bound --d 0.5 --L 10 --simulate 100", 1,
           "error: --simulate needs --site-sizes for the game geometry"),
    ],
    **{f"test_bound_bad_site_sizes_quotes_value[{sizes}]": _r(
        f"bound --site-sizes {sizes} --L 8 --manifest run.json", 1,
        f"error: --site-sizes needs positive integers, got '{sizes}'")
       for sizes in ("2,x", "2,0", "1e3", ",")},
    # the main output is staged first; the plan or manifest after it cannot
    # be written, and the line names it as the user did
    "test_unwritable_side_output_leaves_no_file[attack]": _r(
        "attack --input @mlp --output carrier --attack sign --payload @payload --seed 9 "
        "--plan missing/side.json", 1, _NO_SIDE),
    "test_unwritable_side_output_leaves_no_file[sanitize]": _r(
        "sanitize --input @mlp --output clean --disrupt neuperm --descriptor @mlp.desc "
        f"--seed 3 {_SIDE}", 1, _NO_SIDE),
    "test_unwritable_side_output_leaves_no_file[evaluate]": _r(
        "evaluate --carrier @sign.carrier --plan @sign.plan --disrupt none --seed 5 "
        f"--output report.csv {_SIDE}", 1, _NO_SIDE),
    # the bound is printed only once its manifest is written
    "test_unwritable_side_output_leaves_no_file[bound]": _r(
        f"bound --site-sizes 2 --L 8 --simulate 50 --seed 11 {_SIDE}", 1, _NO_SIDE),
    "test_unwritable_side_output_leaves_no_file[output-is-a-directory]": _r(
        "sanitize --input @mlp --output . --disrupt none", 1, ": '.'"),
    **{f"test_repeated_key_exit_1[{role}-{key}]": _repeated(role, key, value)
       for role, key, value in (("desc", "sites", "[]"), ("net", "layers", "[]"),
                                ("plan", "seed", "2"))},
    **{f"test_non_json_sidecar_error_names_input[{role}-{what}]": _bad(
        role, "{\n", f"error: {what} is not valid JSON: Expecting property name enclosed in "
        "double quotes: line 2 column 1 (char 2)") for role, what in (("net", "net sidecar"),
                                                                   ("plan", "plan"))},
    **{f"test_non_utf8_sidecar_error_names_input[{role}-{what}]": _bad(
        role, b"\xff\xfe{}", f"error: {what} is not UTF-8 text: invalid start byte at byte 0")
       for role, what in (("desc", "descriptor"), ("net", "net sidecar"), ("plan", "plan"))},
    # a huge value is quoted clipped, so the line stays under 200 characters
    "test_malformed_sidecar_error_line_is_short[long-field]": _bad(
        "plan", {**_LSB_PLAN, "seed": [0] * 5000},
        "error: plan field 'seed' must be an integer, got [0, 0, 0, 0, 0, 0, ...]"),
    "test_malformed_sidecar_error_line_is_short[long-missing-tensors]": _bad(
        "plan", _ss_plan(eligible=[f"t{i}" for i in range(5000)]),
        "error: ss plan names tensors the carrier lacks: "
        "['t0', 't1', 't2', 't3', 't4', 't5', ...]"),
    "test_malformed_sidecar_error_line_is_short[long-host_n]": _bad(
        "plan", _ss_plan(host_n=10 ** 1000),
        "error: ss plan host_n is 100000000000000000...0000000000000000000 but its eligible "
        "tensors hold 320 params in the carrier"),
    "test_malformed_sidecar_error_line_is_short[long-payload_bits]": _bad(
        "plan", _ss_plan(payload_len=10 ** 1000),
        "error: host has 320 params; 800000000000000000...0000000000000000000 coded bits need "
        "at least 512000000000000000...0000000000000000000", code=3),
    "test_malformed_sidecar_error_line_is_short[long-net-kind]": _bad(
        "net", {"input": {"kind": "vector", "shape": [8]},
                "layers": [{"kind": [0] * 5000, "params": {"weight": 1}}]},
        "error: layer [0, 0, 0, 0, 0, 0, ...]: params must map to tensor names"),
    **{f"test_malformed_sidecar_exit_1[{case}]": row for case, row in {
        # sidecars that once escaped as a traceback or an error naming no field
        "descriptor-gqa-h_q-string": _bad("desc", _gqa_site(h_q="8", h_kv=2, head_dim=4), "gqa"),
        "descriptor-not-an-object": _bad("desc", [], "descriptor must be a JSON object"),
        "descriptor-site-not-an-object": _bad("desc", {"sites": ["fc1"], "total_params": 450},
                                              "each site must be an object"),
        "descriptor-gqa-missing-key": _bad("desc", _gqa_site(h_q=8, h_kv=2),
                                           "gqa needs h_q, h_kv, head_dim"),
        "descriptor-gqa-field-0": _bad("desc", _gqa_site(h_q=8, h_kv=2, head_dim=0),
                                       "gqa fields must be positive"),
        "descriptor-produce-not-a-list": _bad("desc", {
            "sites": [{"site_id": "fc1", "kind": "fc_pair", "n": 32, "produce": "fc1.weight"}],
            "total_params": 450}, "produce must be a list"),
        "descriptor-shapes-not-an-object": _bad(
            "desc", {"sites": [], "total_params": 450, "shapes": []}, "'shapes' must be an object"),
        "descriptor-notes-not-a-string": _bad(
            "desc", {"sites": [], "total_params": 450, "notes": 3}, "notes must be a string"),
        "net-no-input": _bad("net", {"layers": []}, "needs an 'input' object"),
        "net-layer-a-string": _bad(
            "net", {"layers": ["dense"], "input": {"kind": "vector", "shape": [8]}},
            "net sidecar layer must be an object"),
        "net-hyper-not-a-number": _bad("net", _image_net("maxpool2d", kernel="2"),
                                       "hyper values must be numbers"),
        "net-maxpool-kernel-beyond-image": _bad("net", _image_net("maxpool2d", kernel=9),
                                                "maxpool2d 'kernel' 9 is larger than the 4x4"),
        "net-avgpool-kernel-beyond-image": _bad("net", _image_net("avgpool2d", kernel=5),
                                                "avgpool2d 'kernel' 5 is larger than the 4x4"),
        "net-attention-h_q-not-multiple": _bad(
            "net", _fixture_net(toy_gqa, {2: {"h_q": 7}}),
            "attention_gqa 'h_q' 7 is not a multiple of 'h_kv' 4", "gqa"),
        "net-attention-h_q-rows": _bad(
            "net", _fixture_net(toy_gqa, {2: {"h_q": 4}}),
            "attention_gqa wq needs 16 rows ('h_q' x 'head_dim')", "gqa"),
        "net-attention-h_kv-rows": _bad(
            "net", _fixture_net(toy_gqa, {2: {"h_kv": 2}}),
            "attention_gqa wk needs 8 rows ('h_kv' x 'head_dim')", "gqa"),
        "net-attention-head_dim": _bad(
            "net", _fixture_net(toy_gqa, {2: {"head_dim": 8}}),
            "attention_gqa wq needs 64 rows ('h_q' x 'head_dim')", "gqa"),
        "net-attention-wo-columns": _bad(
            "net", _fixture_net(toy_gqa, {2: {"wo": "mlp.w2"}}),
            "attention_gqa wo needs 32 columns ('h_q' x 'head_dim')", "gqa"),
        "net-vocab-beyond-int64": _bad(
            "net", _one_layer("tokens", [2], "embedding-lookup", _TABLE, vocab=10**30),
            "'vocab' must be an integer >= 1"),
        "net-layers-string": _bad(
            "net", {"layers": "dense", "input": {"kind": "vector", "shape": [8]}}, "layers"),
        "net-maxpool-kernel-0": _bad("net", _image_net("maxpool2d", kernel=0), "'kernel'"),
        "net-avgpool-stride-0": _bad("net", _image_net("avgpool2d", kernel=2, stride=0),
                                     "'stride'"),
        "net-maxpool-stride-negative": _bad(
            "net", _image_net("maxpool2d", kernel=2, stride=-1), "'stride'"),
        "net-conv-padding-negative": _bad("net", _image_net("conv2d", padding=-1), "'padding'"),
        "net-conv-weight-2d": _bad("net", _image_net("conv2d"), "4-d"),
        "net-conv-padding-huge": _bad(
            "net", _one_layer("image", [3, 8, 8], "conv2d", {"weight": "conv1.weight"},
                              padding=1000000), "'padding'", "cnn"),
        "net-vocab-huge": _bad(
            "net", _one_layer("tokens", [2], "embedding-lookup", _TABLE, vocab=1e308), "'vocab'"),
        "net-param-missing-tensor": _bad(
            "net", _one_layer("vector", [8], "dense", {"weight": "nope"}),
            "layer 0 (dense) names tensors the archive lacks: ['nope']"),
        "net-maxpool-no-kernel": _bad("net", _image_net("maxpool2d"),
                                      "layer maxpool2d lacks required hyper 'kernel'"),
        "net-avgpool-no-kernel": _bad("net", _image_net("avgpool2d", stride=1),
                                      "layer avgpool2d lacks required hyper 'kernel'"),
        "net-avgpool-global-0-no-kernel": _bad("net", _image_net("avgpool2d", **{"global": 0}),
                                               "layer avgpool2d lacks required hyper 'kernel'"),
        "net-attention-no-h_q": _bad(
            "net", _one_layer("tokens", [2], "attention_gqa",
                              {role: "fc1.weight" for role in ("wq", "wk", "wv", "wo")},
                              h_kv=1, head_dim=8),
            "layer attention_gqa lacks required hyper 'h_q'"),
        "net-layernorm-eps-infinity": _bad(
            "net", _fixture_net(toy_gqa, {i: {"eps": float("inf")} for i in _GQA_NORMS}),
            "layer layernorm: 'eps' must be a finite number in (0, 1)", "gqa"),
        "net-layernorm-eps-1e30": _bad(
            "net", _fixture_net(toy_gqa, {i: {"eps": 1e30} for i in _GQA_NORMS}),
            "layer layernorm: 'eps'", "gqa"),
        "net-layernorm-eps-negative": _bad(
            "net", _fixture_net(toy_gqa, {i: {"eps": -1} for i in _GQA_NORMS}),
            "layer layernorm: 'eps'", "gqa"),
        "net-batchnorm-eps-0": _bad(
            "net", _one_layer("image", [6, 8, 8], "batchnorm2d", _BN1, eps=0),
            "layer batchnorm2d: 'eps'", "cnn"),
        "net-input-shape-0": _bad(
            "net", _one_layer("vector", [0, 8], "dense", {"weight": "fc1.weight"}),
            "input shape"),
        "net-input-shape-2**63": _bad(
            "net", _one_layer("vector", [2 ** 63], "dense", {"weight": "fc1.weight"}),
            "input shape"),
        "net-input-shape-product-2**64": _bad(
            "net", _one_layer("vector", [2 ** 32, 2 ** 32], "dense", {"weight": "fc1.weight"}),
            "input shape"),
        "net-tokens-2d": _bad(
            "net", _one_layer("tokens", [2, 3], "embedding-lookup", _TABLE, vocab=4),
            "tokens input must be 1-d"),
        # each layer kind names itself and the param that does not fit its input
        "net-maxpool-on-vector": _bad(
            "net", _one_layer("vector", [8], "maxpool2d", kernel=2),
            "error: maxpool2d needs a (C, H, W) input, got shape (8,)"),
        "net-dense-weight-misfit": _bad(
            "net", _fixture_net(toy_mlp, {2: {"weight": "fc1.weight"}}),
            "error: dense 'weight' of shape (16, 8) does not fit an input of shape (16,)"),
        "net-dense-bias-misfit": _bad(
            "net", _fixture_net(toy_mlp, {0: {"bias": "fc2.bias"}}),
            "error: dense 'bias' needs shape (16,), got (12,)"),
        "net-layernorm-gamma-misfit": _bad(
            "net", _fixture_net(toy_gqa, {1: {"gamma": "mlp.b1"}}),
            "error: layernorm 'gamma' needs shape (32,), got (64,)", "gqa"),
        "net-batchnorm-gamma-misfit": _bad(
            "net", _fixture_net(toy_cnn, {1: {"gamma": "bn2.gamma"}}),
            "error: batchnorm2d 'gamma' needs shape (6,), got (8,)", "cnn"),
        "net-conv-weight-misfit": _bad(
            "net", _fixture_net(toy_cnn, {3: {"weight": "conv1.weight"}}),
            "error: conv2d 'weight' of shape (6, 3, 3, 3) does not fit an input of shape "
            "(6, 8, 8)", "cnn"),
        "net-image-2d": _bad(
            "net", _fixture_net(toy_cnn, shape=[8, 8]),
            "error: conv2d needs a (C, H, W) input, got shape (8, 8)", "cnn"),
        "net-embedding-on-vector": _bad(
            "net", _one_layer("vector", [8], "embedding-lookup", _TABLE, vocab=4),
            "error: embedding-lookup needs a tokens input, got float32 values"),
        "net-vocab-beyond-table": _bad(
            "net", _fixture_net(toy_gqa, {0: {"vocab": 1000}}),
            "error: embedding-lookup 'vocab' 1000 exceeds the 32 rows of its 'table'", "gqa"),
        "plan-payload_len-string": _bad("plan", {**_LSB_PLAN, "payload_len": "x"}, "payload_len"),
        "plan-is-a-list": _bad("plan", [_LSB_PLAN], "object"),
        "plan-method-unknown": _bad("plan", {**_LSB_PLAN, "method": "xor"},
                                    "plan method 'xor' is not one of lsb, sign, ss"),
        **{f"plan-bits_per_param-{n}": _bad("plan", {**_LSB_PLAN, "bits_per_param": n},
                                            "'bits_per_param'") for n in (0, 9, 40)},
        "ss-seed-null": _bad("plan", _ss_plan(seed=None), "'seed'"),
        "ss-seed-bool": _bad("plan", _ss_plan(seed=True), "'seed'"),
        "ss-gamma-zero": _bad("plan", _ss_plan(gamma=0), "'gamma'"),
        "ss-gamma-string": _bad("plan", _ss_plan(gamma="0.009"), "'gamma'"),
        "ss-gamma-beyond-float": _bad("plan", _ss_plan(gamma=10 ** 400), "'gamma'"),
        "ss-payload_len-missing": _bad("plan", _ss_plan(payload_len=_DROP), "'payload_len'"),
        "ss-ecc-unknown": _bad("plan", _ss_plan(ecc="golay"), "'ecc'"),
        "ss-eligible-string": _bad("plan", _ss_plan(eligible="fc1.weight"), "'eligible'"),
        "ss-eligible-not-in-carrier": _bad("plan", _ss_plan(eligible=["fc1.weight", "wq"]),
                                           "'wq'"),
        "ss-host_n-missing": _bad("plan", _ss_plan(host_n=_DROP), "'host_n'"),
        "ss-host_n-zero": _bad("plan", _ss_plan(host_n=0), "'host_n'"),
        "ss-host_n-mismatch": _bad("plan", _ss_plan(host_n=321), "host_n"),
        "ss-sha256-not-hex": _bad("plan", _ss_plan(payload_sha256="z" * 64), "'payload_sha256'"),
        # the nested form older versions wrote: gamma and the host inside an "ss" object
        "ss-nested-form": _bad("plan", {
            "method": "ss", "seed": 1, "ecc": "none", "payload_sha256": "0" * 64,
            "payload_len": 1,
            "ss": {"seed": 1, "ecc": "none", "payload_sha256": "0" * 64, "payload_bits": 8,
                   "gamma": 0.009, "eligible": ["fc1.weight", "fc2.weight"], "host_n": 320},
        }, "error: plan field 'gamma' must be a finite number > 0, got None"),
    }.items()},
}


def _check_refusals(ws, tmp_path, capsys, rows):
    """Write each row's input files, run the row through `refusal` in a
    fresh work directory beside them and check its exit code and line."""
    for i, (argv, code, text, files) in enumerate(rows):
        inputs, work = tmp_path / f"in{i}", tmp_path / f"work{i}"
        inputs.mkdir()
        work.mkdir()
        paths = dict(ws)
        for name, content in files.items():
            content = content(ws) if callable(content) else content
            if not isinstance(content, (str, bytes)):
                content = json.dumps(content)
            paths[name] = inputs / name
            paths[name].write_bytes(content.encode() if isinstance(content, str) else content)
        got, line = refusal([paths[a[1:]] if a[0] == "@" else a for a in argv], work, capsys)
        assert got == code, line
        whole = text.startswith(("error:", "neuperm"))
        assert line == text if whole else text in line, line


def _refusal_test(cases: dict):
    """A test that runs its cases' rows through `refusal`, parametrized by
    case unless its one case has no id."""
    if list(cases) == [""]:
        def test(ws, tmp_path, capsys):
            _check_refusals(ws, tmp_path, capsys, cases[""])
        return test

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test(ws, tmp_path, capsys, rows):
        _check_refusals(ws, tmp_path, capsys, rows)
    return test


_CASES = {}
for _id, _rows in _REFUSALS.items():
    _name, _, _case = _id.partition("[")
    _CASES.setdefault(_name, {})[_case[:-1]] = _rows if isinstance(_rows, list) else [_rows]
globals().update((_name, _refusal_test(_cases)) for _name, _cases in _CASES.items())


# ---------------------------------------- refusals beyond argv and files

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
    argv = ["sanitize", "--input", ws["mlp"], "--output", "never.safetensors", "--disrupt",
            "none", "--verify", "--net", ws["mlp.net"], "--seed", "1"]
    assert refusal(argv, tmp_path, capsys) == (1, line)


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
    code, line = refusal(argv, work, capsys)
    assert code == 1 and "named for two outputs" in line, line


@pytest.mark.parametrize("command", ["attack", "evaluate"])
def test_sweep_helper_error_exit_1_no_output(ws, tmp_path, capsys, monkeypatch, command):
    """A chip block that fails on a sweep helper thread ends the command with
    exit 1 and an error line, writes none of its outputs, and leaves the
    BLAS thread count as it found it."""
    fail_chip_sweeps(monkeypatch, False, "chip block failed on a helper")
    monkeypatch.setattr(sweep, "workers", lambda: 2)
    blas = sweep._blas_thread_calls()
    prior = blas[0]() if blas else None
    argv = {
        "attack": ["attack", "--input", ws["host"], "--output", "carrier.safetensors",
                   "--attack", "ss:0.02", "--ecc", "repetition:3", "--payload", ws["payload"],
                   "--seed", "13", "--plan", "plan.json", "--manifest", "run.json"],
        "evaluate": ["evaluate", "--carrier", ws["ss.carrier"], "--plan", ws["ss.plan"],
                     "--disrupt", "none", "--disrupt", "neuperm:1", "--descriptor",
                     ws["host.desc"], "--seed", "5", "--output", "report.csv",
                     "--manifest", "run.json"],
    }[command]
    assert refusal(argv, tmp_path, capsys) == (1, "error: chip block failed on a helper")
    if blas:
        assert blas[0]() == prior


def _fresh_refusal(tmp_path, *argv, code=1) -> str:
    """The error line of `python -m neuperm argv`, run in a new process from
    an empty work directory: as `refusal` asks, the command prints nothing on
    stdout and one short line on stderr, and leaves the directory empty."""
    work = tmp_path / "work"
    work.mkdir()
    proc = _fresh_interpreter([sys.executable, "-m", "neuperm"], *argv, cwd=work)
    assert proc.returncode == code, proc.stderr[-2000:]
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and len(line) < 200, line[:300]
    assert proc.stdout == "" and list(work.iterdir()) == []
    return line


def test_sanitize_verify_nan_outputs_exit_2(ws, tmp_path):
    """noise:1.0 turns a batchnorm running_var negative, so every rewritten
    output is NaN; verification fails instead of reading that as deviation 0,
    and the error line is all it prints (no numpy warning)."""
    line = _fresh_refusal(tmp_path, "sanitize", "--input", ws["cnn"], "--output", "never",
                          "--disrupt", "noise:1.0", "--seed", "1", "--verify", "--net",
                          ws["cnn.net"], code=2)
    assert line.startswith("error: outputs diverged: max normalized deviation nan"), line


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
    sanitize = ["sanitize", "--input", ws["mlp"], "--output", "out", "--disrupt", "none"]
    argv = {
        "archive": ["sanitize", "--input", bad, "--output", "out", "--disrupt", "none"],
        "desc": [*sanitize, "--descriptor", bad],
        "net": [*sanitize, "--verify", "--net", bad],
        "plan": ["evaluate", "--carrier", ws["mlp"], "--plan", bad,
                 "--disrupt", "none", "--output", "out"],
    }[role]
    assert "nested too deeply" in _fresh_refusal(tmp_path, *argv)


_DEEP = "[" * 900 + "]" * 900


def test_deep_list_inside_descriptor_refs_exit_1(ws, tmp_path):
    """A list nested 900 deep inside `produce` parses as JSON; reading it as
    refs goes two levels down and no further, so the command ends in one
    error line, not a RecursionError."""
    bad = tmp_path / "desc.json"
    bad.write_text('{"sites": [{"site_id": "h1", "kind": "fc_pair", "n": 8, "produce": '
                   + _DEEP + '}], "total_params": 1}')
    line = _fresh_refusal(tmp_path, "sanitize", "--input", ws["mlp"], "--output", "out",
                          "--disrupt", "neuperm", "--descriptor", bad)
    assert line.startswith("error: site 'h1': produce entries must be [name, axis]"), line


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
    _fresh_refusal(tmp_path, "sanitize", "--input", ws["mlp"], "--output", "out",
                   "--disrupt", "neuperm", "--descriptor", bad)


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


def test_bound_takes_site_sizes_above_2_64(capsys):
    # only the game of --simulate is limited to 64-bit words
    assert run("bound", "--site-sizes", str(2**64 + 1), "--L", "5") == 0
    assert capsys.readouterr().out == "success_bound 4.681676e-97 (d=5.42101e-20, delta=0, L=5)\n"


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


def _fresh_interpreter(cmd, *argv, cwd, env=None):
    """Run `cmd argv...` in a new process, in `env` (by default this one's),
    with this package's src/ first on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
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
