"""The benchmark's workloads give correct, rerun-identical outputs.

`perfbench/workloads.py` holds each workload's full config, its reference
results and the check that every benchmark run must pass.  This runs each
full config in process, applies that check, and runs it again to compare
every CSV byte for byte, so a change that moves an output past its tolerance
fails here before it fails a benchmark run.  The module is loaded by path,
as `test_tracer.py` loads the tracer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from test_infinity import _entries, _formed, _scanned_rows

from fracteig import energy, geometry
from fracteig.cli import main
from fracteig.energy import FracParams, QuotientTables

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_full_workload_passes_its_check_and_reruns_byte_identically(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    hashes = []
    for run in ("first", "second"):
        out = tmp_path / run
        cfg = tmp_path / f"{run}.json"
        cfg.write_text(json.dumps({**wl.full.config, "out": str(out)}), encoding="utf-8")
        code = main([wl.command, "--config", str(cfg)])
        problems, csv_hashes = workloads.check_output(wl, "full", out, code)
        assert problems == []
        hashes.append(csv_hashes)
    assert hashes[0] and hashes[0] == hashes[1]


def test_verify1d_scans_fold_every_profile(monkeypatch, tmp_path):
    """The verify1d workload's twelve scans (three profiles at h = 1/128 ..
    1/1024) form 5,760 rows, one per orbit of each profile's reflections:
    the second profile, odd about x = 1, folds as the even first and third
    do, and needs no row of its own for a zero extreme.  Unfolded, the
    twelve scans formed 7,676 rows."""
    rows = _scanned_rows(monkeypatch)
    wl = workloads.WORKLOADS["verify1d"]
    cfg = tmp_path / "verify1d.json"
    cfg.write_text(json.dumps({**wl.full.config, "out": str(tmp_path / "out")}), encoding="utf-8")
    assert main([wl.command, "--config", str(cfg)]) == 0
    assert rows == [m for m in (128, 256, 512, 1024) for profile in range(3)]
    assert sum(rows) == 5760


@pytest.mark.parametrize("name, quotients", [("verify1d", 1_646_151),
                                             ("disk_infinity", 238_142)])
def test_scans_form_a_pinned_number_of_quotients(monkeypatch, tmp_path, name, quotients):
    """The quotient entries a workload's scans form, the bound's first passes
    included, are pinned, so a change to the bound or the fold shows here.
    Sub-blocks form the entries whole blocks formed."""
    formed = _formed(monkeypatch)
    wl = workloads.WORKLOADS[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({**wl.full.config, "out": str(tmp_path / "out")}), encoding="utf-8")
    assert main([wl.command, "--config", str(cfg)]) == 0
    assert _entries(formed) == quotients


@pytest.mark.parametrize("name, entries", [("disk_eig", 63_624), ("sweep1d", 20_000)])
def test_a_table_build_gathers_a_pinned_number_of_kernel_entries(monkeypatch, name, entries):
    """The kernel entries one folded table build gathers on a workload's
    lattice are pinned: each block of rows once per group element, on and
    above the diagonal.  Gathering every block twice, for the group maximum
    and again for the sum, took 204,304 entries on disk_eig (16 gathers of
    113 x 113) and 40,000 on sweep1d (4 of 100 x 100)."""
    shapes = []
    real = energy._gather

    def counted(table, row_keys, col_keys, out):
        shapes.append((row_keys.size, col_keys.size))
        return real(table, row_keys, col_keys, out)

    monkeypatch.setattr(energy, "_gather", counted)
    size = workloads.WORKLOADS[name].full
    [(builder, args)] = size.lattices()
    dom = getattr(geometry, builder)(*args)
    p = size.config.get("p") or size.config["ps"][0]
    QuotientTables(dom, FracParams(size.config["alpha"], p), geometry.lattice_symmetries(dom))
    assert _entries(shapes) == entries
