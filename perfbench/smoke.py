"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest perfbench/smoke.py

Runs every workload on the 49k-parameter host_small geometry with a few
trials, untraced and traced, in seconds. The file is not named test_*.py,
so the repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SEED = 5


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    run = bench.run_workload(workload, SEED, 0.1, trace, size="toy")
    assert [r.error for r in run.records if r.error] == []
    metrics = bench.report(run, trace)
    printed = capsys.readouterr().out
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"]
        line = rf"^\[{workload}\] {re.escape(m['name'])} \S+ {re.escape(m['unit'])}$"
        assert re.search(line, printed, re.M), m["name"]
        if not trace:
            assert metrics[m["name"]]["value"] > 0


def test_truncated_input_archive_counts_as_failed(capsys):
    def truncate(work: Path) -> None:
        host = work / "host.safetensors"
        host.write_bytes(host.read_bytes()[:1000])

    run = bench.run_workload("sanitize-large", SEED, 0.1, False, size="toy",
                             after_setup=truncate)
    failed = [r for r in run.records if r.error]
    assert failed and all(r.kind == "sanitize" and r.rc == 1 for r in failed)
    e2e = bench.end_to_end(run)
    assert e2e["fail_ratio"] == len(failed) / len(run.records)
    bench.report(run, False)
    assert "FAILED iteration" in capsys.readouterr().out


def test_reference_mismatch_counts_as_failed(monkeypatch):
    wrong = {str(i): {"sanitize": {"sha256": "0" * 64}} for i in range(bench.CYCLE)}
    monkeypatch.setattr(bench, "load_reference", lambda *args: wrong)
    run = bench.run_workload("sanitize-large", SEED, 0.1, False, size="toy")
    timed = [r for r in run.records if r.iteration != "warmup"]
    assert timed and all("differs from the reference" in r.error for r in timed)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ss-lab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
