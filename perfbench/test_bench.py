"""Self-test of the benchmark on tiny versions of the four workloads.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs at a coarse size (coarse h, short p list), untraced and
traced, through the same code as a full run.  Every output check must pass and
every metric BENCHMARK.json declares must be reported, by name and with its
unit.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_reports_every_metric(name, trace, capsys):
    record = run.run_workload(workloads.WORKLOADS[name], "tiny", seed=0, seconds=0,
                              trace=trace)
    printed = capsys.readouterr().out

    assert record["correct"], [r["problems"] for r in record["runs"]]
    assert record["attempted"] >= 1 and record["failed"] == 0
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: m["unit"] for k, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in printed.splitlines()), m["name"]
    assert "fail_frac" in printed and "ratio" in printed
    if trace == 1:
        assert "unattributed" in printed
        assert list((run.RUNS / f"{name}-tiny-seed0-trace1").glob("spans*.json"))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.tracer.PER_LAYER


def test_checks_reject_wrong_results(tmp_path):
    wl = workloads.WORKLOADS["sweep1d"]
    ref = wl.tiny.reference
    rows = [(p, lam * 1.001, root) for p, lam, root in ref["rows"]]
    (tmp_path / "sweep.csv").write_text(
        "p,lambda,root\n" + "".join(f"{p!r},{lam!r},{root!r}\n" for p, lam, root in rows))
    assert len(wl.check(tmp_path, {}, ref)) == len(rows)

    wl = workloads.WORKLOADS["disk_infinity"]
    summary = dict(wl.tiny.reference, sup_residual=wl.tiny.reference["sup_residual"] * 1.01)
    assert wl.check(tmp_path, {"summary": summary}, wl.tiny.reference)
    assert not wl.check(tmp_path, {"summary": wl.tiny.reference}, wl.tiny.reference)


def test_deadline_kills_a_slow_child(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.2)
    started = time.perf_counter()
    with pytest.raises(run.BenchError, match="version probe failed"):
        run.run_workload(workloads.WORKLOADS["sweep1d"], "tiny", seed=0, seconds=0, trace=0)
    assert time.perf_counter() - started < 5.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
