import csv
import json
import math
import os
import re
import struct
import threading

import numpy as np
import pytest

import neuperm.stego as stego
import neuperm.sweep as sweep
from neuperm.analysis import simulate_extraction_game
from neuperm.archive import save_archive
from neuperm.cli import main
from neuperm.descriptor import descriptor_to_dict
from neuperm.fixtures import ss_host, toy_cnn, toy_gqa, toy_mlp
from neuperm.inference import forward, network_to_dict, softmax
from neuperm.rng import derive_seed
from neuperm.tensor import DTYPES


@pytest.fixture(scope="session")
def mlp_bundle():
    return toy_mlp()


@pytest.fixture(scope="session")
def cnn_bundle():
    return toy_cnn()


@pytest.fixture(scope="session")
def gqa_bundle():
    return toy_gqa()


@pytest.fixture(scope="session")
def small_host_bundle():
    """49k-parameter dense host: large enough for every embedding method."""
    return ss_host(width=128, layers=3)


@pytest.fixture(scope="session")
def all_bundles(mlp_bundle, cnn_bundle, gqa_bundle):
    return {"mlp": mlp_bundle, "cnn": cnn_bundle, "gqa": gqa_bundle}


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """File-backed workspace, written once: the mlp, cnn, gqa and a 49k-param
    host as archives with their descriptors and net sidecars, two payloads,
    and lsb and sign carriers of the mlp and an ss carrier of the host, each
    with its plan. Keys are file stems: "mlp", "mlp.desc", "sign.plan"."""
    root = tmp_path_factory.mktemp("cliws")
    out = {}
    models = (("mlp", toy_mlp()), ("cnn", toy_cnn()), ("gqa", toy_gqa()),
              ("host", ss_host(width=128, layers=3)))
    for name, (archive, desc, net) in models:
        out[name] = root / f"{name}.safetensors"
        out[f"{name}.desc"] = root / f"{name}.desc.json"
        out[f"{name}.net"] = root / f"{name}.net.json"
        save_archive(archive, out[name])
        out[f"{name}.desc"].write_text(json.dumps(descriptor_to_dict(desc)))
        out[f"{name}.net"].write_text(json.dumps(network_to_dict(net)))
    out["payload"] = root / "payload16.bin"
    out["payload"].write_bytes(random_payload(77, 16))
    out["big_payload"] = root / "payload125.bin"
    out["big_payload"].write_bytes(random_payload(78, 125))
    for name, host, attack in (("lsb", "mlp", ["lsb:2", "--ecc", "hamming74"]),
                               ("sign", "mlp", ["sign"]),
                               ("ss", "host", ["ss:0.02", "--ecc", "repetition:3"])):
        out[f"{name}.carrier"] = root / f"{name}.safetensors"
        out[f"{name}.plan"] = root / f"{name}.plan.json"
        argv = ["attack", "--input", out[host], "--output", out[f"{name}.carrier"],
                "--payload", out["payload"], "--seed", "9", "--plan", out[f"{name}.plan"],
                "--attack", *attack]
        assert main([str(a) for a in argv]) == 0
    return out


#: how a refusal's one stderr line starts: ``error:``, or the argument
#: parser's ``neuperm:`` or ``neuperm <command>:`` before it
_ERROR_LINE = re.compile(r"(neuperm( [a-z]+)?: )?error: ")


def refusal(argv, work, capsys) -> tuple[int, str]:
    """Run ``neuperm argv`` in process from the empty directory `work` and
    return its exit code and, when that is not 0, its error line.

    The oracle for every refusal: a command that fails prints nothing on
    stdout and exactly one stderr line, under 200 characters, that starts
    as `_ERROR_LINE` says and quotes no traceback and no staging name, and
    leaves `work` empty. No command leaves a helper thread behind.
    """
    assert list(work.iterdir()) == []
    threads = threading.active_count()
    capsys.readouterr()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = main([str(a) for a in argv])
    finally:
        os.chdir(cwd)
    got = capsys.readouterr()
    assert threading.active_count() == threads
    if code == 0:
        return 0, ""
    assert got.out == "", got.out
    [line] = got.err.splitlines()
    assert _ERROR_LINE.match(line) and len(line) < 200, line[:300]
    assert "Traceback" not in line and ".tmp" not in line, line
    assert list(work.iterdir()) == []
    return code, line


def fail_chip_sweeps(monkeypatch, on_caller: bool, message: str, first: int = 0) -> None:
    """Make ``stego._chip_words`` raise ValueError(message.format(start=...))
    for blocks at host position `first` or later, on the calling thread
    (`on_caller`) or on the helper threads of a sweep.

    ``sweep.run_ordered`` gives each block to whichever thread is free, so
    either side may get none. In each sweep where the failing side is sure
    to get such a block while every thread of the other side holds one
    (helpers hold one each, the calling thread one), the other side's blocks
    wait until the failing side has raised, for at most a minute."""
    caller = threading.get_ident()
    real_words, real_sweep = stego._chip_words, stego.run_ordered
    raised = threading.Event()  # the current sweep's; set outside a sweep
    raised.set()

    def chip_words(plan, start, stop, n_bits):
        if (threading.get_ident() == caller) != on_caller:
            raised.wait(60)
        elif start >= first:
            raised.set()
            raise ValueError(message.format(start=start))
        return real_words(plan, start, stop, n_bits)

    def run_ordered(produce, consume, items):
        nonlocal raised
        count = min(sweep.workers(), len(items))
        others = count - 1 if on_caller else 1
        raised = threading.Event()
        if count == 1 or sum(s >= first for s in items) <= others:
            raised.set()
        try:
            real_sweep(produce, consume, items)
        finally:
            raised.set()

    monkeypatch.setattr(stego, "_chip_words", chip_words)
    monkeypatch.setattr(stego, "run_ordered", run_ordered)


def random_payload(seed: int, nbytes: int) -> bytes:
    """Benign random payload bytes derived from a frozen seed."""
    from neuperm.rng import SeededRng

    words = SeededRng(seed).next_block((nbytes + 7) // 8)
    return bytes(words.view(np.uint8)[:nbytes])


def gaussian_reference(rng, count: int) -> np.ndarray:
    """Box-Muller over one whole-array draw from `rng`'s stream: the
    reference that the blocked `SeededRng.gaussian_block` matches byte for
    byte, with the same state advance."""
    if count == 0:
        return np.empty(0, dtype=np.float64)
    pairs = (count + 1) // 2
    u = rng.uniform_block(2 * pairs)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def max_output_deviation(net, a, b, inputs) -> float:
    """Largest absolute |forward(a) - forward(b)| over the given inputs.

    Stricter than ``neuperm.inference.normalized_output_deviation`` (which
    the CLI verifies with) wherever outputs exceed 1, as some fixtures' do.
    """
    worst = 0.0
    for x in inputs:
        worst = float(np.maximum(worst, np.max(np.abs(forward(net, a, x) - forward(net, b, x)))))
    return worst


def mhsa_forward(w_heads, w_o, x: np.ndarray) -> np.ndarray:
    """Multi-head self-attention in the weights-left convention.

    x has tokens as columns: (d_model, T). Each head carries (wq, wk, wv)
    of shape (d_head, d_model); w_o is (d_model, h * d_head). Heads are
    concatenated vertically before the output projection. This is the form
    whose head-swap identity the proof tests exercise.
    """
    x = np.asarray(x, dtype=np.float64)
    outs = []
    for wq, wk, wv in w_heads:
        q = np.asarray(wq, dtype=np.float64) @ x
        k = np.asarray(wk, dtype=np.float64) @ x
        v = np.asarray(wv, dtype=np.float64) @ x
        scores = (q @ k.T) / np.sqrt(q.shape[0])
        outs.append(softmax(scores, axis=-1) @ v)
    return np.asarray(w_o, dtype=np.float64) @ np.concatenate(outs, axis=0)


def run_game_grid(ns, Ls, delta: float, trials: int, seed: int):
    """Extraction game over the n x L grid; each cell gets its own derived stream."""
    return [
        simulate_extraction_game(n, L, delta, trials, derive_seed(seed, f"game/{n}/{L}"))
        for n in ns
        for L in Ls
    ]


def write_grid_csv(path, results) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "delta", "L", "bound", "empirical", "trials"])
        for r in results:
            w.writerow([f"{1.0 / r.n:.10g}", f"{r.delta:.10g}", r.L, f"{r.bound:.10g}",
                        f"{r.rate:.10g}", r.trials])


def scrambled(archive) -> bytes:
    """The bytes of `archive` with its tensors stored in reverse name order,
    three bytes of gap after each, and one more metadata entry."""
    header = {"__metadata__": {**archive.metadata, "layout": "scrambled"}}
    chunks, cursor = [], 0
    for name in sorted(archive.tensors, reverse=True):
        t = archive.tensors[name]
        data = t.data.tobytes()
        header[name] = {"dtype": DTYPES[t.dtype], "shape": list(t.shape),
                        "data_offsets": [cursor, cursor + len(data)]}
        chunks.append(data + b"\x07" * 3)
        cursor += len(data) + 3
    text = json.dumps(header).encode()
    return struct.pack("<Q", len(text)) + text + b"".join(chunks)
