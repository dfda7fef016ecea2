"""Span tracing around neuperm's public functions, for the traced benchmark run.

Run as a script, this is a drop-in for the untraced CLI launch:

    python3 perfbench/tracer.py SPANS_JSON COMMAND_ID <neuperm cli args...>

It wraps the public functions listed in ``TARGETS`` at the module-global
name each caller looks up (for example ``neuperm.cli.apply_disruptor`` or
``neuperm.stego.words_at``), runs ``neuperm.cli.main``, and writes the
spans it kept in memory to SPANS_JSON once, when the command ends. A span is
``[name, start, end, parent, command_id]`` where ``parent`` is the index of
the enclosing span in the same command, or null. Counters are recorded at the
same boundaries. Private helpers and per-element calls (``SeededRng.bounded``,
``mix64``) are left alone, so tracing adds a fixed cost per call of a public
function and nothing per element.

``layer_metrics`` turns the span dumps of one iteration's commands into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _nbytes(args, result):
    return {"archive.bytes_serialized": len(result), "archive.write_calls": 1}


def _rows(args, result):
    n = int(args[0])
    moved = int(np.count_nonzero(result != np.arange(n)))
    return {"tensor.fisher_yates_rows": n, "engine.moved_rows": moved}


def _one(counter):
    return lambda args, result: {counter: 1}


def _chips(args, result):
    plan = args[2]
    return {"stego.chip_elems": plan.coded_bits * plan.host_n}


def _despread(args, result):
    hosts, plan = args[0], args[1]
    elems = plan.coded_bits * plan.host_n
    return {"stego.chip_elems": elems, "stego.despread_flops": 2 * len(hosts) * elems}


def _positions(args, result):
    return {"stego.positions_drawn": int(args[1])}


def _words(args, result):
    return {"rng.words_generated": int(np.asarray(args[1]).size)}


def _gauss(args, result):
    return {"rng.gaussian_draws": int(args[1])}


def _game(args, result):
    return {"analysis.game_draws": int(args[1]) * int(args[3])}


def _disrupt_name(args):
    return f"disrupt.{args[1].kind}"


#: (module whose global the caller looks up, attribute, span name or a
#: function of the call's arguments that gives it, counter function or None)
TARGETS = (
    ("neuperm.cli", "cmd_sanitize", "cli.cmd", None),
    ("neuperm.cli", "cmd_attack", "cli.cmd", None),
    ("neuperm.cli", "cmd_evaluate", "cli.cmd", None),
    ("neuperm.cli", "cmd_bound", "cli.cmd", None),
    ("neuperm.archive", "parse_archive", "archive.parse", None),
    ("neuperm.archive", "write_archive", "archive.write", _nbytes),
    ("neuperm.cli", "archive_digest", "archive.digest", None),
    ("neuperm.cli", "load_descriptor", "descriptor.load", None),
    ("neuperm.disrupt", "make_schedule", "engine.schedule", None),
    ("neuperm.disrupt", "apply_schedule", "engine.apply", None),
    ("neuperm.engine", "fisher_yates", "tensor.fisher_yates", _rows),
    ("neuperm.engine", "permute_axis_blocks", "tensor.permute", None),
    ("neuperm.cli", "normalized_output_deviation", "inference.verify", None),
    ("neuperm.inference", "forward", "inference.forward", _one("inference.forward_calls")),
    ("neuperm.cli", "apply_disruptor", _disrupt_name, _one("disrupt.variants")),
    ("neuperm.cli", "ss_embed", "stego.ss_embed", _chips),
    ("neuperm.cli", "ss_despread_many", "stego.despread", _despread),
    ("neuperm.cli", "host_vector", "stego.host_vector", None),
    ("neuperm.stego", "host_vector", "stego.host_vector", None),
    ("neuperm.cli", "decode_correlations", "stego.decode", None),
    ("neuperm.stego", "sample_positions", "stego.sample_positions", _positions),
    ("neuperm.cli", "lsb_embed", "stego.bit_embed", None),
    ("neuperm.cli", "sign_embed", "stego.bit_embed", None),
    ("neuperm.cli", "lsb_extract", "stego.bit_extract", None),
    ("neuperm.cli", "sign_extract", "stego.bit_extract", None),
    ("neuperm.stego", "words_at", "rng.words_at", _words),
    ("neuperm.rng", "SeededRng.gaussian_block", "rng.gaussian", _gauss),
    ("neuperm.cli", "simulate_extraction_game", "analysis.game", _game),
)


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [span_name, start, end, parent, self.command_id]
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Rebind every target; a function looked up from two modules gets
        one wrapper, so its calls are counted once."""
        wrapped: dict[int, object] = {}
        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(original, name, counter)
            setattr(owner, leaf, wrapped[id(original)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


#: per-layer metric -> (span name, "total" or "self") for the timed ones
TIMED = {
    "archive.parse_s": ("archive.parse", "total"),
    "archive.write_s": ("archive.write", "total"),
    "archive.digest_s": ("archive.digest", "self"),
    "cli.self_s": ("cli.cmd", "self"),
    "descriptor.load_s": ("descriptor.load", "total"),
    "engine.schedule_s": ("engine.schedule", "total"),
    "engine.apply_s": ("engine.apply", "total"),
    "tensor.fisher_yates_s": ("tensor.fisher_yates", "total"),
    "tensor.permute_s": ("tensor.permute", "total"),
    "inference.verify_s": ("inference.verify", "total"),
    "disrupt.noise_s": ("disrupt.noise", "total"),
    "disrupt.prune_s": ("disrupt.prune", "total"),
    "disrupt.neuperm_s": ("disrupt.neuperm", "total"),
    "stego.ss_embed_s": ("stego.ss_embed", "total"),
    "stego.despread_s": ("stego.despread", "total"),
    "stego.host_vector_s": ("stego.host_vector", "total"),
    "stego.decode_s": ("stego.decode", "total"),
    "stego.sample_positions_s": ("stego.sample_positions", "total"),
    "stego.bit_embed_s": ("stego.bit_embed", "self"),
    "stego.bit_extract_s": ("stego.bit_extract", "self"),
    "rng.words_at_s": ("rng.words_at", "total"),
    "rng.gaussian_s": ("rng.gaussian", "total"),
    "analysis.game_s": ("analysis.game", "total"),
}
COUNTED = (
    "archive.write_calls",
    "archive.bytes_serialized",
    "tensor.fisher_yates_rows",
    "inference.forward_calls",
    "disrupt.variants",
    "stego.chip_elems",
    "stego.despread_flops",
    "stego.positions_drawn",
    "rng.words_generated",
    "rng.gaussian_draws",
    "analysis.game_draws",
)


def layer_metrics(docs) -> dict[str, float]:
    """Per-layer metrics of one iteration, from the span dumps of its
    commands. A layer never entered reads 0."""
    out = {metric: 0.0 for metric in TIMED}
    by_name = {span_name: metric for metric, (span_name, _) in TIMED.items()}
    counts: dict[str, int] = {}
    for doc in docs:
        for span, self_s in zip(doc["spans"], self_times(doc["spans"])):
            metric = by_name.get(span[0])
            if metric is not None:
                out[metric] += self_s if TIMED[metric][1] == "self" else span[2] - span[1]
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for key in COUNTED:
        out[key] = counts.get(key, 0)
    rows = counts.get("tensor.fisher_yates_rows", 0)
    out["engine.moved_ratio"] = counts.get("engine.moved_rows", 0) / rows if rows else 0.0
    return out


def _main(argv: list[str]) -> int:
    spans_path, command_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(command_id)
    tracer.install()
    from neuperm.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
