#!/usr/bin/env python3
"""Freeze the benchmark's reference outputs from the current sources.

    python3 perfbench/freeze_reference.py

Runs every command the benchmark can issue for the default seed (the
warm-up commands and the CYCLE iterations of each workload), untimed, and
writes what they produced to ``perfbench/reference.json``: the sha256 of each
sanitized archive, the rows and ``snr_db`` of each evaluate CSV, and the
success count of each simulated bound. Every command must pass the
workload's invariants first. The references were frozen at the seed commit;
refreeze only when a change is meant to alter what the program computes.
"""

from __future__ import annotations

import json
import re
import sys
import time

import run as bench


def freeze(workload: str) -> dict:
    cfg = bench.PROFILES["full"][workload]
    env, threads = bench.child_env()
    run = bench.Run(
        workload, bench.DEFAULT_SEED, env,
        bench.environment(workload, bench.DEFAULT_SEED, "full", 0, False, threads),
        time.monotonic() + 3600.0,
    )
    bench.set_up(run, cfg)
    work = bench.WORK / workload
    frozen: dict[str, dict] = {}
    plan = [("warmup", [bench.WARMUP_BOUND])] + [
        (i, bench.iteration_cmds(workload, cfg, work, run.seed, i)) for i in range(bench.CYCLE)
    ]
    for index, cmds in plan:
        for cmd in cmds:
            record = bench.run_cmd(run, cmd, index, None)
            if record.error:
                raise SystemExit(f"{workload} {index} {cmd.kind}: {record.error}")
            if cmd.kind != "attack":
                frozen.setdefault(str(index), {})[cmd.key] = record.observed
        print(f"{workload} {index} frozen", flush=True)
    return frozen


def main() -> None:
    doc = {
        "seed": bench.DEFAULT_SEED,
        "source_sha256": bench.source_digest(),
        "workloads": {name: freeze(name) for name in bench.WORKLOADS},
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one line per list of scalars (a CSV row, an snr_db column)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
    bench.REFERENCE.write_text(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
