#!/usr/bin/env python3
"""Materialize the toy fixtures as on-disk files for CLI runs.

Writes, for each fixture, a weight archive plus the two sidecars the CLI
consumes: `<name>.desc.json` (permutable-site descriptor) and
`<name>.net.json` (toy inference graph). Everything is derived from the
frozen fixture seeds, so reruns are byte-identical.
"""

import argparse
import json
from pathlib import Path

from neuperm.archive import save_archive
from neuperm.descriptor import descriptor_to_dict
from neuperm.fixtures import ss_host, toy_cnn, toy_gqa, toy_mlp
from neuperm.inference import network_to_dict


def emit(out_dir: Path, name: str, bundle) -> None:
    archive, desc, net = bundle
    path = out_dir / f"{name}.safetensors"
    digest = save_archive(archive, path)
    (out_dir / f"{name}.desc.json").write_text(
        json.dumps(descriptor_to_dict(desc), indent=2, sort_keys=True) + "\n"
    )
    (out_dir / f"{name}.net.json").write_text(
        json.dumps(network_to_dict(net), indent=2, sort_keys=True) + "\n"
    )
    print(f"{name}: {archive.param_count} params sha256={digest[:16]}…")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_dir", type=Path)
    ap.add_argument(
        "--full-host",
        action="store_true",
        help="also write the 1M-parameter spread-spectrum host (larger file)",
    )
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    emit(args.out_dir, "mlp", toy_mlp())
    emit(args.out_dir, "cnn", toy_cnn())
    emit(args.out_dir, "gqa", toy_gqa())
    emit(args.out_dir, "host_small", ss_host(width=128, layers=3))
    if args.full_host:
        emit(args.out_dir, "host", ss_host())


if __name__ == "__main__":
    main()
