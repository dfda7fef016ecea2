"""Command-line front end.

Subcommands:

* ``sanitize`` — rewrite a weight file with a disruptor in row blocks of
  about 1 MiB, each read from the file (``none`` and ``neuperm``; noise and
  prune read a tensor whole), rewritten and written before the next.
  ``--verify`` then checks that the function is preserved, against the
  model's net sidecar, one layer at a time of the input and then of the
  staged output before the output is committed; a dense layer over vector
  probes reads its weight in row blocks.
* ``attack``   — embed a payload file into a weight file (lsb / sign / ss)
  and write a plan file describing how to extract it again.
* ``evaluate`` — replay extraction against disrupted variants of a carrier
  and write one CSV row per attempt.
* ``bound``    — closed-form payload-survival bound for the fixed-position
  placement game, optionally checked by Monte-Carlo simulation.

``attack`` and ``evaluate`` read their input through ``ArchiveReader`` too:
the carrier is made as it is written, in row blocks. ``evaluate`` hands
every variant's rewrite to ``stego.extract_many``, which reads each tensor
extraction needs once per group of variants.

A command exits 0 on success; otherwise it prints one ``error:`` line and
exits with the ``exit_code`` of the error that ended it (see ``errors``),
1 for usage errors. Every command takes ``--seed`` and
``--manifest``. A command that draws randomness (``bound`` only with
``--simulate``) takes its seed from os.urandom when ``--seed`` is omitted;
either way the seed lands in the manifest, so any run can be replayed
bit-for-bit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .analysis import (
    d_from_site_sizes,
    effective_protected_bits,
    simulate_extraction_game,
    success_bound,
)
# archive_digest, load_descriptor, apply_disruptor, decode_correlations,
# host_vector, lsb_extract, sign_extract and ss_despread_many are unused here
# but stay importable under neuperm.cli, names perfbench/tracer.py wraps
from .archive import ArchiveReader, archive_digest, save_archive  # noqa: F401
from .descriptor import load_descriptor, parse_descriptor  # noqa: F401
from .disrupt import apply_disruptor, parse_disruptor, tensor_rewrite  # noqa: F401
from .errors import VerificationError, quote, read_json, split_spec
from .inference import (
    check_params,
    normalized_output_deviation,
    parse_network,
    random_inputs,
)
from .rng import derive_seed
from .stego import (  # noqa: F401
    ATTACK_KINDS,
    AttackPlan,
    decode_correlations,
    extract_many,
    host_vector,
    lsb_embed,
    lsb_extract,
    parse_ecc,
    sign_embed,
    sign_extract,
    ss_despread_many,
    ss_embed,
)
from .sweep import background

_F32_TOL = 1e-5
_F16_TOL = 1e-3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    verification failures, so usage problems are remapped to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_input(path, inputs: dict) -> bytes:
    """The bytes of an input file, read once; their sha256 goes into `inputs`."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return data


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "little")


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _naming(path):
    """Re-raise an OSError about the staged file of output `path` as one
    naming `path`, the file the user asked for."""
    try:
        yield
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


class _Outputs:
    """Every file one command writes, from its temporary name to the manifest.

    ``archive`` and ``text`` write an output under a temporary name beside
    its target and record the sha256 of the bytes written; ``staged`` maps
    each target to that name until the commit. ``commit`` (or a ``with``
    block that ends normally) writes the manifest last, when ``--manifest``
    asked for one, listing every output, then moves every staged file onto
    its target. When the block raises, or a write or move fails, the staged
    files and any already moved are deleted, so a failed command leaves no
    output file. ``inputs`` and ``details`` are recorded as they stand at
    commit time.
    """

    def __init__(self, args, argv, seed, inputs, details):
        self.manifest = args.manifest
        self.doc = {
            "tool": "neuperm", "command": args.command, "argv": list(argv), "seed": seed,
            "inputs": inputs, "outputs": {}, "details": details,
        }
        self.staged: dict[str, str] = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.commit()
        else:
            self._discard()

    def archive(self, path, archive) -> str:
        """Stage ``archive``, which ``save_archive`` takes, at ``path``."""
        digest = save_archive(archive, self._stage(path))
        self.doc["outputs"][str(path)] = digest
        return digest

    def text(self, path, text: str) -> None:
        self.doc["outputs"][str(path)] = hashlib.sha256(self._write(path, text)).hexdigest()

    def commit(self) -> None:
        moved = []
        try:
            if self.manifest:
                stamp = datetime.now(timezone.utc).isoformat()
                self._write(self.manifest, _json_text({**self.doc, "timestamp_utc": stamp}))
            for path, tmp in self.staged.items():
                with _naming(path):
                    os.replace(tmp, path)
                moved.append(path)
        except BaseException:
            for path in moved:
                with contextlib.suppress(OSError):
                    os.unlink(path)
            raise
        finally:
            self._discard()

    def _discard(self) -> None:
        for tmp in self.staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)

    def _stage(self, path) -> str:
        path = str(path)
        real = os.path.realpath(path)
        if any(os.path.realpath(p) == real for p in self.staged):
            raise ValueError(f"{path} is named for two outputs")
        head, tail = os.path.split(os.path.abspath(path))
        tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        with _naming(path):
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        self.staged[path] = tmp
        return tmp

    def _write(self, path, text: str) -> bytes:
        data = text.encode("utf-8")
        with open(self._stage(path), "wb") as fh:
            fh.write(data)
        return data


# ------------------------------------------------------------- sanitize

def _verify_preserved(net, original, rewritten, probes) -> float:
    tol = _F16_TOL if any(s.dtype == "float16" for s in original.layout.values()) else _F32_TOL
    # a rewrite that breaks the model may overflow or take the root of a
    # negative variance; the deviation reads NaN and the error line says so
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        dev = normalized_output_deviation(net, original, rewritten, probes)
    if not dev <= tol:  # a NaN deviation fails too
        raise VerificationError(
            f"outputs diverged: max normalized deviation {dev:.3e} exceeds "
            f"{tol:.0e} over {len(probes)} probes"
        )
    return dev


def cmd_sanitize(args, argv) -> int:
    if args.probes < 1:
        raise ValueError("--probes must be >= 1")
    config = parse_disruptor(args.disrupt)
    seed = _resolve_seed(args)
    inputs, details = {}, {"disrupt": config.spec}
    # the input is closed before the outputs are committed, so --output may name it
    with _Outputs(args, argv, seed, inputs, details) as out, ArchiveReader(args.input) as source:
        # the header, the descriptor and the net sidecar are read and checked,
        # and the probes drawn, before the first tensor is read
        descriptor = None
        if args.descriptor:
            descriptor = parse_descriptor(_read_input(args.descriptor, inputs), source)
        net = None
        if args.verify:
            net_path = args.net or args.input + ".net.json"
            if not os.path.exists(net_path):
                raise ValueError(f"no net sidecar at {net_path}")
            net = parse_network(_read_input(net_path, inputs))
            check_params(net, source)
            probes = random_inputs(net, args.probes, derive_seed(seed, "verify/probes"))
        rewrite, coverage = tensor_rewrite(config, source, seed=seed, descriptor=descriptor)
        if coverage is not None:
            details["coverage"] = {
                "total_params": coverage.total_params,
                "changed_params": coverage.changed_params,
                "fraction": coverage.fraction,
                "percent": coverage.percent,
                "applied_sites": list(coverage.applied_sites),
            }
        # each tensor is read, rewritten and written in row blocks; the input
        # hash runs beside that and is done before --verify, whose gemvs use
        # every BLAS thread
        with background(source.digest) as input_digest:
            details["output_digest"] = out.archive(args.output, source.map(rewrite))
            inputs[args.input] = input_digest()
        if net is not None:
            # the bytes about to be committed, against the input
            with ArchiveReader(out.staged[str(args.output)]) as result:
                details["verify_max_deviation"] = _verify_preserved(net, source, result, probes)
    deviation = details.get("verify_max_deviation")
    line = f"sanitize {config.spec} seed={seed}"
    if coverage is not None:
        line += f" coverage={coverage.percent:.2f}%"
    if deviation is not None:
        line += f" verified(max_dev={deviation:.3e})"
    print(line)
    return 0


# --------------------------------------------------------------- attack

def _parse_attack_spec(spec: str):
    return split_spec(spec, ATTACK_KINDS, "attack spec")


def cmd_attack(args, argv) -> int:
    seed = _resolve_seed(args)
    inputs, details = {}, {"attack": args.attack}
    # the input is closed before the outputs are committed, so --output may name it
    with _Outputs(args, argv, seed, inputs, details) as out, \
            ArchiveReader(args.input) as source, background(source.digest) as input_digest:
        with open(args.payload, "rb") as fh:
            payload = fh.read()
        if not payload:
            raise ValueError("payload file is empty")
        kind, param = _parse_attack_spec(args.attack)
        ecc = parse_ecc(args.ecc)
        plan = AttackPlan.for_payload(kind, payload, source, seed=seed, ecc=ecc, param=param)
        details.update(ecc=ecc.spec, payload_sha256=plan.payload_sha256)
        embed = {"lsb": lsb_embed, "sign": sign_embed, "ss": ss_embed}[kind]
        details["output_digest"] = out.archive(args.output, embed(source, payload, plan))
        inputs.update({args.input: input_digest(), args.payload: plan.payload_sha256})
        if args.plan:
            out.text(args.plan, _json_text(plan.to_dict()))
    print(f"attack {args.attack} ecc={ecc.spec} seed={seed} payload={len(payload)}B")
    return 0


# ------------------------------------------------------------- evaluate

def _variant_specs(configs, trials: int, seed: int):
    """(config, variant_seed) pairs; deterministic disruptors collapse to a
    single variant regardless of the trial count."""
    return [(config, derive_seed(seed, f"eval/{config.spec}/{i}"))
            for config in configs for i in range(trials if config.stochastic else 1)]


def cmd_evaluate(args, argv) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    inputs = {}
    with ArchiveReader(args.carrier) as source, background(source.digest) as carrier_digest:
        plan = AttackPlan.from_dict(read_json(_read_input(args.plan, inputs), "plan"))
        configs = [parse_disruptor(s) for s in args.disrupt]
        if not configs:
            raise ValueError("at least one --disrupt is required")
        descriptor = None
        if args.descriptor:
            descriptor = parse_descriptor(_read_input(args.descriptor, inputs), source)
        seed = _resolve_seed(args)
        variants = _variant_specs(configs, args.trials, seed)
        extracted = extract_many(source, plan, (
            tensor_rewrite(config, source, seed=vseed, descriptor=descriptor)[0]
            for config, vseed in variants))
        rows = [
            (config, "" if snr is None else f"{snr:.4f}", int(plan.matches(got)))
            for (config, _), (got, snr) in zip(variants, extracted)
        ]
        inputs[args.carrier] = carrier_digest()
    successes = sum(ok for _, _, ok in rows)

    details = {"disrupt": [c.spec for c in configs], "trials": args.trials,
               "attempts": len(rows), "successes": successes}
    with _Outputs(args, argv, seed, inputs, details) as out:
        out.text(args.output, "method,param,snr_db,extraction_success\n" + "".join(
            f"{config.kind},{config.value:g},{snr},{ok}\n" for config, snr, ok in rows
        ))
    print(f"evaluate {len(rows)} attempts, {successes} extractions succeeded")
    return 0


# ---------------------------------------------------------------- bound

def cmd_bound(args, argv) -> int:
    if args.simulate is not None and args.simulate < 1:
        raise ValueError("--simulate must be >= 1")
    sizes = None
    if args.site_sizes:
        try:
            sizes = [int(s) for s in args.site_sizes.split(",") if s.strip()]
        except ValueError:
            sizes = []
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError(f"--site-sizes needs positive integers, got {quote(args.site_sizes)}")
    if (args.d is None) == (sizes is None):
        raise ValueError("give exactly one of --d or --site-sizes")
    if args.simulate is not None and sizes is None:
        raise ValueError("--simulate needs --site-sizes for the game geometry")
    d = args.d if args.d is not None else d_from_site_sizes(sizes)

    if args.L is not None:
        if args.L_prime is not None or args.L_total is not None or args.L_np is not None:
            raise ValueError("--L conflicts with --L-prime/--L-total/--L-np")
        L = args.L
    else:
        parts = (args.L_prime, args.L_total, args.L_np)
        if any(p is None for p in parts):
            raise ValueError("give --L or all of --L-prime, --L-total, --L-np")
        L = effective_protected_bits(*parts)

    delta = args.delta
    if args.ecc is not None:
        if delta is not None:
            raise ValueError("--delta conflicts with --ecc")
        delta = parse_ecc(args.ecc).delta
    if delta is None:
        delta = 0.0

    bound = success_bound(d, delta, L)
    lines = [f"success_bound {bound:.6e} (d={d:g}, delta={delta:g}, L={L})"]
    details = {"d": d, "delta": delta, "L": L, "bound": bound}
    if args.simulate is not None:
        seed = _resolve_seed(args)
        result = simulate_extraction_game(min(sizes), L, delta, args.simulate, seed)
        lines.append(
            f"simulated {result.successes}/{result.trials} successes "
            f"(rate {result.rate:.6g})"
        )
        details.update(
            {"seed": seed, "trials": result.trials, "successes": result.successes,
             "empirical": result.rate}
        )
    _Outputs(args, argv, details.get("seed"), {}, details).commit()
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neuperm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--manifest", help="write a replayable run manifest here")

    p = sub.add_parser("sanitize", parents=[common], help="rewrite a weight file with a disruptor")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--disrupt", required=True,
                   help="none | noise:sigma | prune:ratio | neuperm[:fraction]")
    p.add_argument("--descriptor", help="architecture descriptor JSON")
    p.add_argument("--verify", action="store_true",
                   help="check outputs are preserved before writing")
    p.add_argument("--net", help="net sidecar path (default: INPUT.net.json)")
    p.add_argument("--probes", type=int, default=20)
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser("attack", parents=[common], help="embed a payload file into a weight file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--attack", required=True, help="lsb[:bits] | sign | ss:gamma")
    p.add_argument("--payload", required=True, help="payload bytes to embed")
    p.add_argument("--ecc", default="none", help="none | repetition:r | hamming74")
    p.add_argument("--plan", help="write the extraction plan JSON here")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", parents=[common],
                       help="extraction attempts against disrupted variants")
    p.add_argument("--carrier", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--disrupt", action="append", default=[],
                   help="repeatable disruptor spec")
    p.add_argument("--descriptor")
    p.add_argument("--trials", type=int, default=1,
                   help="variants per stochastic disruptor")
    p.add_argument("--output", required=True, help="CSV of attempts")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bound", parents=[common], help="closed-form payload survival bound",
                       description="Closed-form upper bound on payload survival in the "
                       "fixed-position placement game, where every displaced read is an error. "
                       "Not a bound for real lsb or sign extractors: a 1-byte lsb:1 payload on "
                       "toy_mlp came back in 0.55% of rewrites, against a bound of 5.95e-7.")
    p.add_argument("--d", type=float, help="worst per-bit survival probability")
    p.add_argument("--site-sizes", help="comma-separated site sizes (d = 1/min)")
    p.add_argument("--L", type=int, help="coded bits under permutation")
    p.add_argument("--L-prime", type=int, dest="L_prime", help="embedded coded bits")
    p.add_argument("--L-total", type=int, dest="L_total", help="total parameters")
    p.add_argument("--L-np", type=int, dest="L_np", help="parameters a schedule moves")
    p.add_argument("--delta", type=float, help="correctable error fraction")
    p.add_argument("--ecc", help="derive delta from an ecc spec")
    p.add_argument("--simulate", type=int, metavar="TRIALS",
                   help="check the bound by playing the extraction game TRIALS times; "
                        "each trial draws L random words, so the time grows with "
                        "L x TRIALS and nothing caps it (about 1 s per trial at "
                        "L=2e8 on a 2-vCPU machine)")
    p.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args, argv)
    except (ValueError, VerificationError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 1)
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
