"""Generate one workload's input files from a seed (the benchmark's set-up).

    python3 perfbench/inputs.py OUT_DIR WIDTH LAYERS PAYLOAD_BYTES SEED

Writes ``host.safetensors`` with its ``host.desc.json`` / ``host.net.json``
sidecars, built by ``neuperm.fixtures.ss_host`` from a fixture seed derived
from SEED, plus ``payload.bin`` (seeded bytes; skipped when PAYLOAD_BYTES is
0). Prints one JSON line describing the numeric environment the commands
will see: numpy version, BLAS library and its thread count.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
from pathlib import Path

import numpy as np

from neuperm.archive import save_archive
from neuperm.descriptor import descriptor_to_dict
from neuperm.fixtures import ss_host
from neuperm.inference import network_to_dict
from neuperm.rng import SeededRng, derive_seed


def blas_info() -> dict:
    """BLAS name from numpy's build config, threads from the loaded library."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    lib_dir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(lib_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"numpy": np.__version__, "blas": name, "blas_threads": threads}


def main(argv: list[str]) -> None:
    out = Path(argv[0])
    width, layers, payload_bytes, seed = (int(a) for a in argv[1:5])
    out.mkdir(parents=True, exist_ok=True)
    archive, desc, net = ss_host(seed=derive_seed(seed, "bench/host"), width=width, layers=layers)
    save_archive(archive, out / "host.safetensors")
    (out / "host.desc.json").write_text(json.dumps(descriptor_to_dict(desc), indent=2))
    (out / "host.net.json").write_text(json.dumps(network_to_dict(net), indent=2))
    if payload_bytes:
        words = SeededRng(derive_seed(seed, "bench/payload")).next_block(-(-payload_bytes // 8))
        (out / "payload.bin").write_bytes(words.view(np.uint8)[:payload_bytes].tobytes())
    print(json.dumps(blas_info()))


if __name__ == "__main__":
    main(sys.argv[1:])
