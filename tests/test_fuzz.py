"""Seeded fuzzer over the JSON inputs: descriptors, net sidecars and plans.

Each case takes the mlp, cnn or gqa fixture's descriptor or net sidecar, or
the plan of the mlp's lsb or sign carrier, and mutates one to three of its
nodes: a node leaves its object or list, takes one of `_VALUES`, or, when
it names a tensor, names another tensor of the same fixture. The case then
runs the command that reads the input, in process: `sanitize --disrupt
neuperm --verify` for a descriptor or net sidecar, `evaluate --disrupt none`
for a plan. A command that exits 0 leaves its output; any other exits 1, 2
or 3 and passes the refusal oracle, and the error line for a net sidecar
carries none of numpy's wording.
"""

import copy
import json
import os
import random

import pytest
from conftest import refusal

from neuperm.fixtures import toy_cnn, toy_gqa, toy_mlp

_SEED = 0x5EED
_CASES = 50  # per input

#: what a mutated node may become
_VALUES = (None, True, False, 0, -1, 2**31, 2**63, 1e30, -1e30, 1.5, float("nan"), "",
           [], [0], {}, {"x": 0})

#: phrases of numpy's errors for arrays that do not fit together
_NUMPY_WORDING = ("broadcast", "operand", "mismatch", "unpack", "remapped", "out of bounds",
                  "too many indices", "cannot reshape", "window shape", "not aligned")

_TENSORS = {name: set(make()[0].tensors) for name, make in
            (("mlp", toy_mlp), ("cnn", toy_cnn), ("gqa", toy_gqa))}


@pytest.fixture
def memory_cap():
    """Cap this process's address space 1 GiB above its present size while a
    test runs, so that an input that asks for gigabytes ends in MemoryError
    on any machine instead of in swap."""
    resource = pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("the cap is sized from /proc/self/statm")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        cap = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
    if limits[1] != resource.RLIM_INFINITY:
        cap = min(cap, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    yield
    resource.setrlimit(resource.RLIMIT_AS, limits)


def _nodes(doc, path=()):
    """The path of every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutate(doc, rng: random.Random, names: set) -> None:
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(doc))
        if not nodes:
            return
        *path, key = rng.choice(nodes)
        parent = doc
        for step in path:
            parent = parent[step]
        op, node = rng.randrange(3), parent[key]
        if op == 0:
            del parent[key]
        elif op == 1 and isinstance(node, str) and node in names:
            parent[key] = rng.choice(sorted(names - {node}))
        else:
            parent[key] = copy.deepcopy(rng.choice(_VALUES))


def _argv(ws, source: str, role: str, bad):
    if role == "plan":
        return ["evaluate", "--carrier", ws[f"{source}.carrier"], "--plan", bad,
                "--disrupt", "none", "--output", "out"]
    desc, net = (bad, ws[f"{source}.net"]) if role == "desc" else (ws[f"{source}.desc"], bad)
    return ["sanitize", "--input", ws[source], "--output", "out", "--disrupt", "neuperm",
            "--seed", "3", "--verify", "--descriptor", desc, "--net", net]


@pytest.mark.parametrize("source,role", [
    *((model, role) for model in ("mlp", "cnn", "gqa") for role in ("desc", "net")),
    ("lsb", "plan"), ("sign", "plan"),
])
def test_mutated_input(ws, tmp_path, capsys, memory_cap, source, role):
    stem = f"{source}.{role}"
    base = ws[stem].read_text()
    rng = random.Random(f"{_SEED}/{stem}")
    for i in range(_CASES):
        doc = json.loads(base)
        _mutate(doc, rng, _TENSORS.get(source, set()))
        bad, work = tmp_path / f"{i}.json", tmp_path / f"work{i}"
        bad.write_text(json.dumps(doc))
        work.mkdir()
        case = f"{stem} case {i}: {bad.read_text()[:400]}"
        try:
            code, line = refusal(_argv(ws, source, role, bad), work, capsys)
        except AssertionError as e:
            raise AssertionError(f"{case}\n{e}") from e
        if code == 0:
            assert (work / "out").exists(), case
            continue
        assert code in (1, 2, 3), f"{line}\n{case}"
        if role == "net":
            assert not any(w in line for w in _NUMPY_WORDING), f"{line}\n{case}"
