"""Start-up cost: the command line runs on numpy alone.

Each check runs in a fresh interpreter, since this test session has long since
imported scipy.  No run loads scipy, the p = 2 dense oracle and the distance
to the complement of a free-form mask included.  No default run loads
OpenSSL either (`_hashlib`, which maps libcrypto): the config digest uses
CPython's built-in SHA-256.  A solve with ``init_mode: "random"`` still loads
it, through numpy.random, which imports secrets and with it hmac.  No run loads
numpy.ma, which the first np.unique of a process imports (13-17 ms, 1.7 MB).

No run builds the whole box's coordinate array (`geometry._node_coords`, 16
bytes per box node in 2-D): lattices test membership on sparse axes, and
coordinates, distances and CSV rows are formed at the inside nodes alone.
The infinity and verify1d runs form no float array over the box: they
build no `GridFunction` from one and read no function's `values`, as their
functions and distances are held at the inside nodes
(`GridFunction.from_inside`).

Every run computes the distance to the complement once per lattice it
builds, however many of its steps read it (a sweep's start and target, the
infinity report's lambda, ridge and two-ball radius).

`main` freezes the heap the imports made (`gc.freeze()`), so the collector,
at exit too, walks only what the run allocates; the frozen run writes the
same bytes as an in-process one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracteig
from fracteig.cli import main

SRC = str(Path(fracteig.__file__).resolve().parents[1])

_INTERVAL = {"shape": "interval", "a": 0.0, "b": 2.0}
_DISK = {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0}
_TINY_RUNS = [
    ("sweep", {"domain": _INTERVAL, "alpha": 0.5, "h": 0.05, "ps": [8.0, 16.0]}),
    ("eig", {"domain": _DISK, "alpha": 0.75, "h": 0.25, "p": 4.0}),
    ("infinity", {"domain": _DISK, "alpha": 0.5, "h": 0.125, "margin": 1.0}),
    ("verify1d", {"domain": _INTERVAL, "alpha": 0.5, "h": 0.0625,
                  "h_list": [0.0625, 0.03125]}),
]

# Runs the CLI in process, one config after another, and prints the scipy,
# OpenSSL and numpy.ma modules loaded after the import and after each run,
# and per run the number of calls to geometry._node_coords, of lattices built
# (GridDomain instances) and of complement distances computed at the inside
# nodes: a canonical shape's `distance`, or for a mask geometry's own call of
# `_nearest_distances` (which distance_to_set also makes; no run here calls it),
# and of float arrays over the box behind grid functions: GridFunction.__init__
# calls, which take one, and reads of GridFunction.values, which form one for
# a function held at the inside nodes.
_SCRIPT = """
import json, sys
from pathlib import Path
from fracteig import geometry
from fracteig.cli import main

def heavy_modules():
    return sorted(m for m in sys.modules
                  if m in ("scipy", "_hashlib", "numpy.ma") or m.startswith("scipy."))

def counting(owner, name, tally):
    real = getattr(owner, name)
    def wrapper(*args, **kwargs):
        tally.append(name)
        return real(*args, **kwargs)
    setattr(owner, name, wrapper)

calls, lattices, deltas, boxes = [], [], [], []
counting(geometry, "_node_coords", calls)
counting(geometry.GridDomain, "__post_init__", lattices)
counting(geometry.GridFunction, "__init__", boxes)
box_values = geometry.GridFunction.values.fget
geometry.GridFunction.values = property(lambda u: boxes.append(u) or box_values(u))
for shape in (geometry.Interval, geometry.Disk, geometry.Rectangle):
    counting(shape, "distance", deltas)
counting(geometry, "_nearest_distances", deltas)

tmp = Path(sys.argv[1])
seen = {"import": heavy_modules()}
coords, per_lattice, box_arrays = {}, {}, {}
for k, (command, cfg) in enumerate(json.loads(sys.argv[2])):
    out = tmp / f"run{k}"
    cfg = dict(cfg, out=str(out))
    path = tmp / f"config{k}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    del calls[:], lattices[:], deltas[:], boxes[:]
    assert main([command, "--config", str(path)]) == 0, (command, cfg)
    seen[f"{k}:{command}"] = heavy_modules()
    coords[f"{k}:{command}"] = len(calls)
    per_lattice[f"{k}:{command}"] = [len(lattices), len(deltas)]
    box_arrays[f"{k}:{command}"] = len(boxes)
print(json.dumps([seen, coords, per_lattice, box_arrays]))
"""


# Runs the CLI once in process and prints whether the collector was enabled
# before and after, the objects it tracked before the run, the frozen count
# and the objects it tracks after.
_GC_SCRIPT = """
import gc, json, sys
from fracteig.cli import main

enabled, tracked = gc.isenabled(), len(gc.get_objects())
assert main(sys.argv[1:]) == 0
print(json.dumps([enabled, gc.isenabled(), tracked, gc.get_freeze_count(),
                  len(gc.get_objects())]))
"""


def _python(*args: str) -> str:
    """Standard output of a fresh interpreter that imports fracteig from here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_fresh(tmp_path: Path, runs: list) -> list:
    stdout = _python("-c", _SCRIPT, str(tmp_path), json.dumps(runs))
    return json.loads(stdout.strip().splitlines()[-1])


def _write_config(path: Path, command_and_config: tuple, out: Path) -> list:
    """Write the config with its output directory; return main's argv."""
    command, cfg = command_and_config
    path.write_text(json.dumps(dict(cfg, out=str(out))), encoding="utf-8")
    return [command, "--config", str(path)]


def _csv_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def test_cli_import_and_tiny_runs_load_no_scipy(tmp_path):
    # a free-form disk on a 7x7 lattice at h = 1/4, outside nodes all round
    mask = tmp_path / "mask.csv"
    ticks = [0.25 * k for k in range(-3, 4)]
    mask.write_text("x,y,inside\n" + "".join(
        f"{x!r},{y!r},{int(x * x + y * y < 0.5)}\n" for x in ticks for y in ticks),
        encoding="utf-8")
    runs = [
        *_TINY_RUNS,
        ("eig", {"domain": _INTERVAL, "alpha": 0.75, "h": 0.125, "p": 2.0}),
        ("infinity", {"domain": {"shape": "mask", "path": str(mask)},
                      "alpha": 0.5, "h": 0.25}),
    ]
    seen, coords, per_lattice, box_arrays = _run_fresh(tmp_path, runs)
    assert list(seen) == ["import", "0:sweep", "1:eig", "2:infinity", "3:verify1d",
                          "4:eig", "5:infinity"]
    for stage, modules in seen.items():
        assert modules == [], stage
    # the canonical runs, the mask run and the p = 2 oracle alike
    assert coords == {stage: 0 for stage in list(seen)[1:]}
    # one complement distance per lattice: verify1d builds three, the rest one
    assert per_lattice == {stage: [3, 3] if stage.endswith("verify1d") else [1, 1]
                           for stage in list(seen)[1:]}
    # infinity and verify1d, the mask run too, hold inside values alone
    assert [box_arrays[stage] for stage in ("2:infinity", "3:verify1d", "5:infinity")] \
        == [0, 0, 0]
    report = json.loads((tmp_path / "run4" / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["oracle_gap"] < 1e-8 * report["summary"]["oracle_lambda"]


def test_main_freezes_the_import_heap(tmp_path):
    """After a run the collector is as enabled as before, everything tracked
    before the run is frozen, and it tracks under a tenth of that."""
    argv = _write_config(tmp_path / "config.json", _TINY_RUNS[2], tmp_path / "run")
    enabled, enabled_after, tracked, frozen, tracked_after = json.loads(
        _python("-c", _GC_SCRIPT, *argv).strip().splitlines()[-1])
    assert enabled_after == enabled
    assert frozen >= tracked
    assert tracked_after < tracked / 10


def test_module_entry_and_in_process_main_write_the_same_bytes(tmp_path):
    """`python -m fracteig.cli` freezes a fresh interpreter's heap; main in
    this process freezes one that has run the test session.  The CSVs agree."""
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    _python("-m", "fracteig.cli",
            *_write_config(tmp_path / "fresh.json", _TINY_RUNS[2], fresh))
    assert main(_write_config(tmp_path / "here.json", _TINY_RUNS[2], here)) == 0
    written = _csv_bytes(fresh)
    assert sorted(written) == ["domain_mask.csv", "infinity_report.csv", "representation.csv"]
    assert _csv_bytes(here) == written
