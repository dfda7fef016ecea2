#!/usr/bin/env python3
"""neuperm benchmark: closed-loop CLI workloads with reference-checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``ss-lab``, ``bit-lab``, ``sanitize-large`` or ``all``. Run it from
a checkout of the repository; it reads ``src/`` and writes only under
``perfbench/.work`` and ``perfbench/results``.

One client drives the ``neuperm`` CLI: every command is a child process
(this interpreter with ``src/`` on PYTHONPATH, running ``neuperm.cli.main``)
and starts after the previous one has exited. A run

1. sets up the workload's inputs from the seed (``perfbench/inputs.py``:
   fixture archive, sidecars, payload) at least three times and for at
   least 1.5 seconds, and reports the median as ``setup_s``;
2. warms up explicitly: it syncs the file system after each set-up and
   before each command, so no command pays for the write-back of files
   written before it, and runs one untimed ``bound`` command so imports and
   bytecode caches are warm; timings are medians over iterations, so a
   slower first iteration does not set them;
3. repeats the workload's iteration (its command list) while fewer than S
   seconds of iterations have passed, at least once;
4. checks every command's outputs against ``perfbench/reference.json`` for
   the default seed, and against the workload's invariants for any seed.

With ``--trace 1`` every iteration runs twice, untraced and then traced
through ``perfbench/tracer.py``; the per-layer metrics come from the traced
copies and the tracing overhead is the difference in wall time.

The report lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics when
traced). The full record, with the environment, every command and every
span, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402  (lives next to this file)

WORKLOADS = ("ss-lab", "bit-lab", "sanitize-large")
DEFAULT_SEED = 1
SETUPS = 3
SETUP_SECONDS = 1.5
#: iteration i reuses the command seeds of iteration i % CYCLE, so the frozen
#: references cover every iteration a run can reach
CYCLE = 6
#: a run must end within 180 s; stop starting work that could overrun this
DEADLINE_S = 165.0
DISRUPTORS = ("none", "noise:0.0001", "prune:0.05", "neuperm:1")
F32_TOL = 1e-5

#: "full" is the benchmark. "toy" runs every workload on the 49k-parameter
#: host_small geometry in seconds, for the smoke test; its payloads are
#: smaller and its ss amplitude larger so that the same invariants hold.
PROFILES = {
    "full": {
        "ss-lab": {"width": 512, "layers": 4, "payload": 128, "gamma": 0.009, "trials": 5},
        "bit-lab": {"width": 512, "layers": 4, "payload": 4096, "trials": 5,
                    "game_trials": 50_000},
        "sanitize-large": {"width": 4096, "layers": 4, "payload": 0},
    },
    "toy": {
        "ss-lab": {"width": 128, "layers": 3, "payload": 16, "gamma": 0.05, "trials": 2},
        "bit-lab": {"width": 128, "layers": 3, "payload": 256, "trials": 2,
                    "game_trials": 2_000},
        "sanitize-large": {"width": 128, "layers": 3, "payload": 0},
    },
}

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "failed/attempted",
    "attack_s": "s", "evaluate_attempts_per_s": "rows/s", "game_trials_per_s": "trials/s",
    "sanitize_p50_s": "s", "sanitize_mb_per_s": "MB/s",
}
LAYER_UNITS = {
    **{metric: "s" for metric in tracer.TIMED},
    **{metric: "count" for metric in tracer.COUNTED},
    "archive.bytes_serialized": "bytes",
    "stego.despread_flops": "flop",
    "engine.moved_ratio": "ratio",
    "trace.overhead_s": "s",
}
MB = float(1 << 20)


# ------------------------------------------------------------ child processes

@dataclass
class Launch:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> tuple[dict, int]:
    """Environment for every child: src/ importable, BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = min(int(env.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    except ValueError:
        threads = nproc
    env["OPENBLAS_NUM_THREADS"] = str(max(1, threads))
    return env, max(1, threads)


def launch(argv: list[str], env: dict, timeout: float, out_dir: Path) -> Launch:
    """Run one child to completion; wall time and its own peak RSS (wait4)."""
    out_path, err_path = out_dir / "child.stdout", out_dir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return Launch(
        proc.returncode, wall, usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"), err_path.read_text(errors="replace")[-2000:],
    )


# ------------------------------------------------------------ workloads

@dataclass
class Cmd:
    """One CLI command of an iteration and what its outputs must satisfy."""

    kind: str                      # attack | evaluate | bound | sanitize
    key: str                       # name of its record in the reference
    args: list[str]
    outputs: tuple[Path, ...] = ()
    method: str = ""               # ss | lsb | sign (attack, evaluate)
    rows: tuple[str, ...] = ()     # evaluate: the method of each CSV row
    game_trials: int = 0           # bound: simulated trials expected


def derived_seed(seed: int, workload: str, label: str, index) -> int:
    digest = hashlib.sha256(f"{seed}/{workload}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def iteration_cmds(workload: str, cfg: dict, work: Path, seed: int, index) -> list[Cmd]:
    """The commands of iteration `index` (below CYCLE)."""
    host, desc, payload = work / "host.safetensors", work / "host.desc.json", work / "payload.bin"

    def s(label: str) -> str:
        return str(derived_seed(seed, workload, label, index))

    def attack(method: str, spec: str, ecc: str) -> Cmd:
        carrier, plan = work / f"{method}_carrier.safetensors", work / f"{method}_plan.json"
        return Cmd("attack", f"attack_{method}", [
            "attack", "--input", str(host), "--output", str(carrier), "--attack", spec,
            "--ecc", ecc, "--payload", str(payload), "--seed", s(f"attack/{method}"),
            "--plan", str(plan),
        ], (carrier, plan), method=method)

    def evaluate(method: str) -> Cmd:
        report = work / f"{method}.csv"
        disrupt = [a for spec in DISRUPTORS for a in ("--disrupt", spec)]
        return Cmd("evaluate", f"{method}.csv", [
            "evaluate", "--carrier", str(work / f"{method}_carrier.safetensors"),
            "--plan", str(work / f"{method}_plan.json"), *disrupt,
            "--descriptor", str(desc), "--trials", str(cfg["trials"]),
            "--seed", s(f"evaluate/{method}"), "--output", str(report),
        ], (report,), method=method, rows=tuple(
            spec.partition(":")[0]
            for spec in DISRUPTORS
            for _ in range(cfg["trials"] if spec.startswith(("noise", "neuperm")) else 1)
        ))

    if workload == "ss-lab":
        return [attack("ss", f"ss:{cfg['gamma']}", "repetition:3"), evaluate("ss")]
    if workload == "bit-lab":
        return [
            attack("lsb", "lsb:2", "hamming74"),
            attack("sign", "sign", "repetition:3"),
            evaluate("lsb"),
            evaluate("sign"),
            Cmd("bound", "bound", [
                "bound", "--site-sizes", "512", "--L", "1000", "--ecc", "hamming74",
                "--simulate", str(cfg["game_trials"]), "--seed", s("bound"),
            ], game_trials=cfg["game_trials"]),
        ]
    out, manifest = work / "sanitized.safetensors", work / "manifest.json"
    return [Cmd("sanitize", "sanitize", [
        "sanitize", "--input", str(host), "--output", str(out), "--disrupt", "neuperm",
        "--descriptor", str(desc), "--seed", s("sanitize"), "--verify",
        "--net", str(work / "host.net.json"), "--manifest", str(manifest),
    ], (out, manifest))]


WARMUP_BOUND = Cmd("bound", "warmup_bound", ["bound", "--d", "0.99", "--L", "1000"])


# ------------------------------------------------------------ output checks

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def observe(cmd: Cmd, stdout: str):
    """What a command produced, in the form the reference freezes."""
    if cmd.kind == "evaluate":
        with open(cmd.outputs[0], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return {
            "rows": [[r["method"], r["param"], r["extraction_success"]] for r in rows],
            "snr_db": [float(r["snr_db"]) if r["snr_db"] else None for r in rows],
        }
    if cmd.kind == "bound":
        bound = re.search(r"^success_bound (\S+)", stdout, re.M)
        sim = re.search(r"^simulated (\d+)/(\d+) successes", stdout, re.M)
        return {
            "bound": bound.group(1) if bound else None,
            "successes": int(sim.group(1)) if sim else None,
            "trials": int(sim.group(2)) if sim else None,
        }
    if cmd.kind == "sanitize":
        return {"sha256": sha256_file(cmd.outputs[0])}
    return {}


def invariant_error(cmd: Cmd, obs: dict, host: dict) -> str | None:
    """Criterion-3-style checks that hold for any seed."""
    if cmd.kind == "attack":
        carrier, plan = cmd.outputs
        if carrier.stat().st_size != host["bytes"]:
            return "carrier size differs from the host's"
        if json.loads(plan.read_text()).get("method") != cmd.method:
            return "plan names another method"
    elif cmd.kind == "evaluate":
        rows = obs["rows"]
        if tuple(r[0] for r in rows) != cmd.rows:
            return "CSV rows are not one per variant, in disruptor order"
        for (method, _, ok), snr in zip(rows, obs["snr_db"]):
            if method == "neuperm" and (ok != "0" or (cmd.method == "ss" and not snr < 0)):
                return "a neuperm variant kept the payload"
            survives = ("none", "noise", "prune") if cmd.method == "ss" else ("none",)
            if method in survives and ok != "1":
                return f"payload lost to {method}"
    elif cmd.kind == "bound":
        if obs["bound"] is None:
            return "no success_bound line"
        if cmd.game_trials and (
            obs["trials"] != cmd.game_trials or not 0 <= obs["successes"] <= obs["trials"]
        ):
            return "simulated trial count is wrong"
    elif cmd.kind == "sanitize":
        out, manifest = cmd.outputs
        if out.stat().st_size != host["bytes"] or obs["sha256"] == host["sha256"]:
            return "sanitized archive has another size or equals its input"
        doc = json.loads(manifest.read_text())
        if doc["outputs"].get(str(out)) != obs["sha256"]:
            return "manifest records another output digest"
        if not doc["details"].get("verify_max_deviation", 1.0) <= F32_TOL:
            return "manifest lacks a passing verification"
    return None


def reference_error(cmd: Cmd, obs: dict, ref: dict) -> str | None:
    if cmd.kind == "evaluate":
        if obs["rows"] != ref["rows"]:
            return "method,param,extraction_success differ from the reference"
        for got, want in zip(obs["snr_db"], ref["snr_db"]):
            if (got is None) != (want is None) or (got is not None and abs(got - want) > 0.01):
                return f"snr_db {got} differs from the reference {want} by more than 0.01"
    elif obs != ref:
        return f"{obs} differs from the reference {ref}"
    return None


# ------------------------------------------------------------ one run

@dataclass
class CmdRecord:
    iteration: object
    kind: str
    traced: bool
    rc: int
    wall_s: float
    peak_rss_mb: float
    error: str | None
    observed: dict | None
    rows: int = 0
    game_trials: int = 0


@dataclass
class Run:
    workload: str
    seed: int
    env: dict                      # environment the children run in
    env_record: dict               # what the result records about it
    deadline: float
    setup_s: list[float] = field(default_factory=list)
    host: dict = field(default_factory=dict)
    records: list[CmdRecord] = field(default_factory=list)
    spans: list = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)


def run_cmd(run: Run, cmd: Cmd, iteration, reference: dict | None,
            traced: bool = False) -> CmdRecord:
    """Launch one command and check what it left behind. `reference` is the
    frozen record of this iteration's inputs, or None."""
    for path in cmd.outputs:
        path.unlink(missing_ok=True)
    os.sync()  # no write-back of an earlier command's outputs inside this one
    work = WORK / run.workload
    if traced:
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        command_id = f"{iteration}/{len(run.records)}/{cmd.kind}"
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), command_id]
    else:
        argv = [sys.executable, "-c", "import sys; from neuperm.cli import main; sys.exit(main())"]
    res = launch(argv + cmd.args, run.env, run.deadline - time.monotonic(), work)
    error, obs = None, None
    if res.rc != 0:
        error = f"exit {res.rc}: {res.stderr.strip()[-300:]}"
    elif any(not p.exists() or p.stat().st_size == 0 for p in cmd.outputs) or not res.stdout:
        error = "left no output"
    else:
        try:
            obs = observe(cmd, res.stdout)
            error = invariant_error(cmd, obs, run.host)
            ref = (reference or {}).get(cmd.key)
            if error is None and ref is not None:
                error = reference_error(cmd, obs, ref)
        except (OSError, ValueError, KeyError, TypeError) as e:
            error = f"unreadable output: {e!r}"
    record = CmdRecord(iteration, cmd.kind, traced, res.rc, res.wall_s, res.peak_rss_mb,
                       error, obs, len(cmd.rows), cmd.game_trials)
    run.records.append(record)
    if traced and spans_path.exists():
        doc = json.loads(spans_path.read_text())
        run.spans.append(doc)
    return record


def load_reference(workload: str, seed: int, size: str) -> dict | None:
    if size != "full" or not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    return doc["workloads"].get(workload) if doc.get("seed") == seed else None


def set_up(run: Run, cfg: dict, after_setup=None) -> None:
    """Generate the inputs at least SETUPS times and for SETUP_SECONDS (each
    timed), then record the host's size and digest for the checks."""
    work = WORK / run.workload
    while len(run.setup_s) < SETUPS or sum(run.setup_s) < SETUP_SECONDS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        res = launch(
            [sys.executable, str(BENCH / "inputs.py"), str(work), str(cfg["width"]),
             str(cfg["layers"]), str(cfg["payload"]), str(run.seed)],
            run.env, run.deadline - time.monotonic(), WORK,
        )
        if res.rc != 0:
            raise RuntimeError(f"set-up failed (exit {res.rc}): {res.stderr.strip()}")
        run.setup_s.append(res.wall_s)
        os.sync()  # the fresh archive's write-back must not land inside a timed step
    run.env_record.update(json.loads(res.stdout.strip().splitlines()[-1]))
    if after_setup is not None:
        after_setup(work)
    host = work / "host.safetensors"
    run.host = {"bytes": host.stat().st_size, "sha256": sha256_file(host)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", after_setup=None) -> Run:
    cfg = PROFILES[size][workload]
    env, threads = child_env()
    run = Run(workload, seed, env,
              environment(workload, seed, size, seconds, trace, threads),
              time.monotonic() + DEADLINE_S)
    reference = load_reference(workload, seed, size)
    WORK.mkdir(parents=True, exist_ok=True)
    set_up(run, cfg, after_setup)
    work = WORK / workload

    def frozen(index) -> dict | None:
        return reference.get(str(index)) if reference else None

    run_cmd(run, WARMUP_BOUND, "warmup", frozen("warmup"))

    start, longest, i = time.monotonic(), 0.0, 0
    passes = (False, True) if trace else (False,)
    while i == 0 or (
        time.monotonic() - start < seconds
        and time.monotonic() + longest < run.deadline
    ):
        began = time.monotonic()
        for traced in passes:
            first_doc = len(run.spans)
            for cmd in iteration_cmds(workload, cfg, work, seed, i % CYCLE):
                run_cmd(run, cmd, i, frozen(i % CYCLE), traced)
            if traced:
                run.layers.append(tracer.layer_metrics(run.spans[first_doc:]))
        longest = max(longest, time.monotonic() - began)
        i += 1
    return run


# ------------------------------------------------------------ metrics

def source_digest() -> str:
    """sha256 over the package sources; names the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "neuperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed, size, seconds, trace, threads) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "openblas_num_threads": threads, "git_commit": commit,
        "source_sha256": source_digest(),
        "warmup": "sync after each set-up and before each command; one untimed bound",
    }


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    """Every end-to-end metric the workload defines, from untraced commands."""
    timed = [r for r in run.records if not r.traced and r.iteration != "warmup"]
    by_iter: dict[int, list[CmdRecord]] = {}
    for r in timed:
        by_iter.setdefault(r.iteration, []).append(r)
    iters = list(by_iter.values())

    def per_iter(fn):
        return median([fn(cmds) for cmds in iters])

    def wall(cmds, kind):
        return sum(c.wall_s for c in cmds if c.kind == kind)

    attempted = len(run.records)
    failed = sum(r.error is not None for r in run.records)
    out = {
        "setup_s": median(run.setup_s),
        "wall_s": per_iter(lambda cmds: sum(c.wall_s for c in cmds)),
        "peak_rss_mb": max((r.peak_rss_mb for r in timed), default=0.0),
        "fail_ratio": failed / attempted if attempted else 0.0,
    }
    if run.workload in ("ss-lab", "bit-lab"):
        out["attack_s"] = per_iter(lambda cmds: wall(cmds, "attack"))
        out["evaluate_attempts_per_s"] = per_iter(
            lambda cmds: sum(c.rows for c in cmds if c.kind == "evaluate")
            / wall(cmds, "evaluate")
        )
    if run.workload == "bit-lab":
        out["game_trials_per_s"] = per_iter(
            lambda cmds: sum(c.game_trials for c in cmds if c.kind == "bound") / wall(cmds, "bound")
        )
    if run.workload == "sanitize-large":
        out["sanitize_p50_s"] = median([r.wall_s for r in timed if r.kind == "sanitize"])
        out["sanitize_mb_per_s"] = run.host["bytes"] / MB / out["sanitize_p50_s"]
    return out


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    """Times: median over traced iterations. Counts: the first traced
    iteration, whose inputs are the same on every run with this seed."""
    first = run.layers[0]
    out = {}
    for metric in first:
        if LAYER_UNITS[metric] == "s":
            out[metric] = median([layer[metric] for layer in run.layers])
        else:
            out[metric] = first[metric]
    absent = sorted(m for m, v in out.items() if v == 0)
    walls: dict[tuple, float] = {}
    for r in run.records:
        if r.iteration != "warmup":
            key = (r.iteration, r.traced)
            walls[key] = walls.get(key, 0.0) + r.wall_s
    out["trace.overhead_s"] = median([
        walls[(i, True)] - walls[(i, False)]
        for i in {k[0] for k in walls} if (i, True) in walls
    ])
    return out, absent


def report(run: Run, trace: bool) -> dict:
    """Print the human-readable lines, write the full record, and return the
    metrics for the final JSON line."""
    tag = f"[{run.workload}]"
    print(f"{tag} env {json.dumps(run.env_record, sort_keys=True)}")
    e2e = end_to_end(run)
    n_iter = len({r.iteration for r in run.records if r.iteration != "warmup"})
    print(f"{tag} iterations {n_iter}, setups {len(run.setup_s)}, "
          f"host {run.host['bytes'] / MB:.1f} MB")
    for name, value in e2e.items():
        print(f"{tag} {name} {value:.6g} {UNITS[name]}")
    for r in run.records:
        if r.error:
            print(f"{tag} FAILED iteration {r.iteration} {r.kind}: {r.error}")
    doc = {"environment": run.env_record, "setup_s": run.setup_s, "host": run.host,
           "end_to_end": e2e, "commands": [r.__dict__ for r in run.records]}
    if trace:
        layers, absent = per_layer(run)
        for name, value in layers.items():
            print(f"{tag} {name} {value:.6g} {LAYER_UNITS[name]}")
        print(f"{tag} layers never entered: {', '.join(absent) or 'none'}")
        doc.update(per_layer=layers, absent=absent, spans=run.spans)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{run.workload}-seed{run.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(doc, indent=1, default=str))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "neuperm" / "cli.py").is_file():
        print(f"error: no neuperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        got = report(run, bool(args.trace))
        attempted += len(run.records)
        failed += sum(r.error is not None for r in run.records)
        metrics.update(got if len(names) == 1 else {f"{name}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
