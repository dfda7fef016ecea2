"""The package against the independent oracles of scripts/oracle_goldens.py.

The unit suites freeze constants the script printed once; here the package
is compared with the script itself, so a change to either shows up.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from neuperm.analysis import success_bound_ecc, success_bound_no_ecc
from neuperm.archive import ModelArchive, write_archive
from neuperm.rng import SeededRng
from neuperm.stego import sample_positions
from neuperm.tensor import fisher_yates, tensor

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "oracle_goldens.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("oracle_goldens", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed,count", [(0, 5), (42, 3)])
def test_splitmix_stream(oracle, seed, count):
    rng = SeededRng(seed)
    assert [rng.next_u64() for _ in range(count)] == oracle.splitmix_stream(seed, count)


@pytest.mark.parametrize("n,seed", [(4, 42), (8, 7), (1, 9)])
def test_fisher_yates(oracle, n, seed):
    assert fisher_yates(n, SeededRng(seed)).tolist() == oracle.fisher_yates(n, seed)


def test_sample_positions(oracle):
    assert sample_positions(2**20, 98304, 7).tolist() == oracle.sample_positions(2**20, 98304, 7)


def test_golden_archive(oracle):
    assert write_archive(ModelArchive({"w": tensor([1.0, 2.0])})) == oracle.golden_archive()


def test_bounds(oracle):
    want = oracle.bounds()
    got = {
        "no-ecc d=0.99 L=1000": success_bound_no_ecc(0.99, 1000),
        "ecc d=0.5 delta=0.1 L=100": success_bound_ecc(0.5, 0.1, 100),
        "ecc d=0.1 delta=1/3 L=30": success_bound_ecc(0.1, 1 / 3, 30),
    }
    assert got.keys() == want.keys()
    for label, value in got.items():
        assert math.isclose(value, want[label], rel_tol=1e-12), label
