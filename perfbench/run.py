"""fracteig benchmark: the four CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Load model: a closed loop with one client.  The benchmark starts one child
process at a time and waits for it, so on a 2-CPU machine the child has a core
to itself.  Every child gets the same fixed environment, with the BLAS and
OpenMP thread pools set to one thread.

--trace 0 measures the end-to-end metrics: `setup_s` (median of several fresh
processes that import fracteig.cli and build the workload's lattices) and
`wall_s` / `peak_rss_mb` (median over fresh `fracteig <subcommand>` processes,
repeated until S seconds have passed, at least twice).  --trace 1 alternates
untraced runs with runs under perfbench/tracer.py and reports the per-layer
metrics and the tracing overhead.  Every run's outputs are checked (see
workloads.py) and its CSV files must be byte-identical to the first run's.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Full results, machine description and
spans are written under perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
MIN_RUNS = 2
# A run of one workload stops starting children, and kills the one running,
# this long after it began, so the command ends within its 180 s limit.
DEADLINE_S = 165.0
SEED_NOTE = ("recorded only: every workload is a fixed deterministic config, "
             "so the seed selects nothing yet")

# What the installed `fracteig` console script runs.
CLI = "import sys; from fracteig.cli import main; sys.exit(main())"
# Fresh-process set-up: import the CLI and build the workload's lattices.
SETUP = ("import json, sys, fracteig.cli\n"
         "from fracteig import geometry\n"
         "for name, args in json.loads(sys.argv[1]):\n"
         "    getattr(geometry, name)(*args)\n")
# Untimed first child: fills the bytecode and page caches, reports versions.
VERSIONS = ("import json, platform, numpy, scipy, fracteig, fracteig.cli\n"
            "blas = lambda mod: mod.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps({'python': platform.python_version(),\n"
            "    'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
            "    'fracteig': fracteig.__version__,\n"
            "    'numpy_blas': '{name} {version}'.format(**blas(numpy)),\n"
            "    'scipy_blas': '{name} {version}'.format(**blas(scipy))}))\n")


class BenchError(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


@dataclass
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


def child_env() -> dict:
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0", "LC_ALL": "C", **THREAD_ENV}


def spawn(argv, log: Path, deadline: float) -> Child:
    """Run one child to completion or the deadline (a perf_counter time); wall time
    from spawn to exit and the child's own peak RSS."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        # os.kill, not proc.kill: Popen would reap the child before wait4 can
        killer = threading.Timer(max(deadline - start, 0.0), os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        wall = None
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            killer.join()
            if wall is None:  # interrupted: end the child before leaving
                os.kill(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime)


def machine() -> dict:
    """CPU, caches, memory and interpreter of the machine running the benchmark."""
    info = {"platform": platform.platform(), "nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (d / "type").read_text().strip()
            if kind != "Instruction":
                level = (d / "level").read_text().strip()
                info[f"L{level}_{kind.lower()}"] = (d / "size").read_text().strip()
    except OSError as exc:
        info["cpu_info_error"] = str(exc)
    info["ram_mb"] = round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20)
    return info


def _versions(out: Path, deadline: float) -> dict:
    log = out / "versions.log"
    child = spawn([sys.executable, "-c", VERSIONS], log, deadline)
    if child.returncode != 0:
        raise BenchError(f"version probe failed (exit {child.returncode}):\n"
                         f"{log.read_text()[-2000:]}")
    return json.loads(log.read_text().splitlines()[-1])


def _setup_probes(size, out: Path, deadline: float) -> list:
    arg = json.dumps(size.lattices())
    walls = []
    for k in range(SETUP_PROBES):
        log = out / f"setup{k}.log"
        child = spawn([sys.executable, "-c", SETUP, arg], log, deadline)
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{log.read_text()[-2000:]}")
        walls.append(child.wall_s)
    return walls


def run_workload(wl: Workload, size: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; print its report and return the result record."""
    deadline = time.perf_counter() + DEADLINE_S
    out = RUNS / f"{wl.name}-{size}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps(wl.size(size).config, indent=2) + "\n", encoding="utf-8")

    print(f"== {wl.name} ({size}): fracteig {wl.command}; seed {seed} {SEED_NOTE}")
    record = {"workload": wl.name, "size": size, "seed": seed, "seed_note": SEED_NOTE,
              "seconds": seconds, "trace": trace, "machine": machine(),
              "child_env": child_env(),
              "versions": _versions(out, deadline), "runs": []}
    print("machine:", json.dumps(record["machine"]))
    print("versions:", json.dumps(record["versions"]))
    print("child env:", json.dumps(record["child_env"]))
    setup = _setup_probes(wl.size(size), out, deadline) if trace == 0 else []

    first_hashes = None
    start = time.perf_counter()
    k = 0
    while ((k < (MIN_RUNS if trace == 0 else 1) or time.perf_counter() - start < seconds)
           and time.perf_counter() < deadline):
        modes = ["plain"] if trace == 0 else ["plain", "traced"]
        for mode in modes:
            run_dir = out / f"run{k}-{mode}"
            spans = out / f"spans{k}.json"
            prog = ["-c", CLI] if mode == "plain" else [str(BENCH / "tracer.py"), str(spans)]
            child = spawn([sys.executable, *prog, wl.command, "--config", str(cfg),
                           "--out", str(run_dir)], out / f"run{k}-{mode}.log", deadline)
            problems, hashes = check_output(wl, size, run_dir, child.returncode)
            if not problems:
                first_hashes = first_hashes or hashes
                if hashes != first_hashes:
                    problems.append("CSV bytes differ from the first run's")
            entry = {"mode": mode, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                     "peak_rss_mb": child.peak_rss_mb,
                     "returncode": child.returncode, "problems": problems}
            if mode == "traced" and spans.is_file():
                span_list = json.loads(spans.read_text())
                entry["layers"] = tracer.layer_table(span_list)
                entry["metrics"] = tracer.layer_metrics(span_list)
                m = entry["metrics"]
                allowed = max((1.0 - tracer.MIN_COVERAGE) * m["trace.in_process_s"],
                              tracer.START_ALLOWANCE_S)
                if m["trace.unattributed_s"] > allowed:
                    problems.append(f"layer spans cover only {m['trace.coverage']:.1%} "
                                    f"of the run")
            elif mode == "traced":
                problems.append("traced run wrote no spans")
            record["runs"].append(entry)
            shutil.rmtree(run_dir, ignore_errors=True)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"run {k} {mode}: {child.wall_s:.3f} s, {child.peak_rss_mb:.1f} MB, {status}")
        k += 1

    runs = record["runs"]
    plain = [r for r in runs if r["mode"] == "plain"]
    if not plain:
        raise BenchError(f"no run started within {DEADLINE_S:.0f} s")
    failed = sum(1 for r in runs if r["problems"])
    if trace == 0:
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        units = END_TO_END
        record["setup_s"] = setup
    else:
        traced = [r for r in runs if "metrics" in r]
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in traced[0]["metrics"]} if traced else {}
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in runs
                                                    if r["mode"] == "traced")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(r["wall_s"] for r in plain))
        units = tracer.PER_LAYER
        if traced:
            _print_layer_table(traced)
    record.update(correct=failed == 0 and set(metrics) == set(units),
                  attempted=len(runs), failed=failed,
                  metrics={name: {"value": metrics[name], "unit": unit}
                           for name, unit in units.items() if name in metrics})

    for name, m in record["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    if trace == 0:
        print(f"(medians: wall_s and peak_rss_mb of {len(plain)} runs, "
              f"setup_s of {len(setup)} set-up processes)")
    print(f"{'fail_frac':28s} {failed / len(runs):>16.6g} ratio ({failed} of {len(runs)} runs)")
    record["fail_frac"] = failed / len(runs)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def _print_layer_table(traced: list) -> None:
    """Per-layer self time of the median traced run (by in-process time)."""
    traced = sorted(traced, key=lambda r: r["layers"]["total"])
    layers = traced[len(traced) // 2]["layers"]
    total = layers["total"]
    print(f"{'layer':14s} {'self_s':>10s} {'share':>7s}")
    for layer, secs in layers.items():
        print(f"{layer:14s} {secs:>10.4f} {secs / total:>7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "fracteig" / "cli.py").is_file():
            raise BenchError(f"no fracteig sources under {SRC}; run from a source checkout")
        records = [run_workload(WORKLOADS[n], "full", args.seed, args.seconds, args.trace)
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
