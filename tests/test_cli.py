"""End-to-end runs of the command-line entry points.

Each test drives main() with a JSON config in a temp directory and inspects
exit codes, artifacts, and report.json.  Exit-code policy under test: only
configuration/environment errors are nonzero; honest non-convergence stays
in-band.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_geometry import triangle_mask

import fracteig
from fracteig import __version__, cli, solver
from fracteig.cli import main
from fracteig.geometry import build_rectangle, distance_to_complement, high_ridge
from fracteig.reports import canonical_json, config_digest, fmt17, mask_rows, write_csv


def _write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _eig_config(tmp_path: Path, out: Path, **overrides) -> Path:
    payload = {
        "domain": {"shape": "interval", "a": 0.0, "b": 1.0},
        "alpha": 0.9,
        "h": 1 / 16,
        "p": 2.0,
        "out": str(out),
    }
    payload.update(overrides)
    return _write_config(tmp_path, payload)


def test_eig_writes_artifacts_and_matches_oracle(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out)
    rc = main(["eig", "--config", str(cfg)])
    assert rc == 0
    assert "report.json" in capsys.readouterr().out

    rep = _report(out)
    assert rep["command"] == "eig"
    assert rep["version"] == __version__
    assert sorted(rep.keys()) == ["command", "config", "config_sha256", "outputs",
                                  "summary", "version", "wall_time_s"]
    assert rep["config_sha256"] == config_digest(rep["config"])

    s = rep["summary"]
    assert s["converged"] is True
    assert s["inside_nodes"] == 15
    assert s["orbits"] == 8  # the mirror pairs of (0, 1), and the midpoint
    assert s["stop_reason"] in ("grad", "rel_drop")
    assert s["evals"] >= s["iters"] + 1
    assert s["oracle_gap"] <= 1e-8
    assert abs(s["lambda"] - s["oracle_lambda"]) == s["oracle_gap"]

    mask_lines = (out / "domain_mask.csv").read_text().strip().splitlines()
    assert mask_lines[0] == "x,inside"
    eig_lines = (out / "eigenfunction.csv").read_text().strip().splitlines()
    assert eig_lines[0] == "x,u"
    assert len(eig_lines) == 1 + s["inside_nodes"]
    values = [float(line.split(",")[1]) for line in eig_lines[1:]]
    assert min(values) > 0.0


def test_eig_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out)
    assert main(["eig", "--config", str(cfg)]) == 0
    first = {name: (out / name).read_bytes()
             for name in ("domain_mask.csv", "eigenfunction.csv")}
    first_report = _report(out)

    assert main(["eig", "--config", str(cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
    second_report = _report(out)
    for rep in (first_report, second_report):
        rep.pop("wall_time_s")
    assert first_report == second_report


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["eig", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_must_be_json_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["eig", "--config", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_missing_required_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"domain": {"shape": "interval", "a": 0, "b": 1},
                                   "h": 0.25})
    assert main(["eig", "--config", str(cfg)]) == 2
    assert "missing required key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eig", "sweep"])
def test_unknown_solver_option_exits_2(tmp_path, capsys, command):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, ps=[2.0, 3.0],
                      solver={"max_iters": 5, "max_iter": 5})
    assert main([command, "--config", str(cfg)]) == 2
    assert "unknown solver option(s) ['max_iter']" in capsys.readouterr().err
    assert not out.exists()


def test_solver_section_must_be_an_object(tmp_path, capsys):
    cfg = _eig_config(tmp_path, tmp_path / "run", solver=[1, 2])
    assert main(["eig", "--config", str(cfg)]) == 2
    assert "'solver' must be an object" in capsys.readouterr().err


def test_invalid_exponent_window_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, alpha=0.3)  # alpha*p = 0.6 <= dimension
    assert main(["eig", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "report.json").exists()


def test_unknown_domain_shape_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"domain": {"shape": "hexagon"},
                                   "alpha": 0.9, "h": 0.25, "p": 2.0})
    assert main(["eig", "--config", str(cfg)]) == 2
    assert "unknown domain shape" in capsys.readouterr().err


def test_eig_without_p_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out)
    payload = json.loads(cfg.read_text())
    del payload["p"]
    cfg = _write_config(tmp_path, payload)
    assert main(["eig", "--config", str(cfg)]) == 2
    assert "requires a single exponent" in capsys.readouterr().err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_sweep_run_writes_rows_and_target(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.75,
        "h": 1 / 16,
        "ps": [2.0, 3.0, 4.0],
        "out": str(out),
    })
    assert main(["sweep", "--config", str(cfg)]) == 0

    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "p,lambda,root,target,converged,iters"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [2.0, 3.0, 4.0]
    # inscribed radius 1 puts the limiting root at exactly 1
    assert all(float(r[3]) == 1.0 for r in rows)
    assert all(r[4] == "1" for r in rows)
    for r in rows:
        assert abs(float(r[2]) - float(r[1]) ** (1.0 / float(r[0]))) < 1e-12

    s = _report(out)["summary"]
    assert s["target"] == 1.0
    assert s["all_converged"] is True
    assert len(s["stop_reasons"]) == 3
    assert set(s["stop_reasons"]) <= {"grad", "rel_drop"}
    # every iteration takes at least one evaluation, after the one at the start
    assert s["iters"] == [int(r[5]) for r in rows]
    assert len(s["evals"]) == 3
    assert all(e >= i + 1 for e, i in zip(s["evals"], s["iters"]))
    assert s["orbits"] == [16, 16, 16]  # 31 inside nodes in mirror pairs and the midpoint
    assert len(s["gaps"]) == 3
    assert s["final_gap"] == s["gaps"][-1]
    assert s["final_gap"] == pytest.approx(abs(float(rows[-1][2]) - 1.0), rel=1e-12)


@pytest.mark.parametrize("ps, message", [
    ([], "non-empty"),
    ([4.0, 2.0], "ascending"),
])
def test_sweep_rejects_bad_p_lists(tmp_path, capsys, ps, message):
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.75,
        "h": 0.25,
        "ps": ps,
        "out": str(tmp_path / "run"),
    })
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_infinity_run_summary_and_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "h": 1 / 20,
        "out": str(out),
    })
    assert main(["infinity", "--config", str(cfg)]) == 0

    s = _report(out)["summary"]
    assert s["lambda_infinity"] == 1.0
    assert s["inscribed_radius"] == 1.0
    assert s["r2_radius"] == 0.5
    assert s["ridge_nodes"] == 1
    assert s["gamma1_nodes"] == 1
    assert s["nodes"] == 39
    assert s["sup_residual_interior"] <= 1e-10
    assert s["sup_residual"] <= 5.0 * (1 / 20) ** 0.5

    table = (out / "infinity_report.csv").read_text().strip().splitlines()
    assert table[0].split(",") == ["node", "x", "u", "delta", "l_plus",
                                   "witness_plus", "l_minus", "witness_minus",
                                   "l_minus_analytic", "branch", "residual"]
    assert len(table) == 1 + s["nodes"]
    rep_lines = (out / "representation.csv").read_text().strip().splitlines()
    assert rep_lines[0] == "x,u"
    assert len(rep_lines) == 1 + s["nodes"]


def test_infinity_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "alpha": 0.5,
        "h": 0.25,
        "out": str(out),
    })
    names = ("domain_mask.csv", "representation.csv", "infinity_report.csv")
    assert main(["infinity", "--config", str(cfg)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    first_report = _report(out)

    assert main(["infinity", "--config", str(cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
    second_report = _report(out)
    for rep in (first_report, second_report):
        rep.pop("wall_time_s")
    assert first_report == second_report


def test_infinity_rejects_gamma1_off_the_ridge(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "h": 0.25,
        "gamma1": [0],
        "out": str(out),
    })
    assert main(["infinity", "--config", str(cfg)]) == 2
    assert "outside the ridge" in capsys.readouterr().err
    assert not out.exists()


def test_infinity_gamma1_subset_changes_representation(tmp_path):
    dom = build_rectangle([0.0, 0.0], [4.0, 2.0], 0.25, margin=1.0)
    ridge = high_ridge(distance_to_complement(dom))
    assert len(ridge) > 1
    base = {
        "domain": {"shape": "rectangle", "lo": [0.0, 0.0], "hi": [4.0, 2.0]},
        "alpha": 0.5,
        "h": 0.25,
        "margin": 1.0,
    }

    out_full = tmp_path / "full"
    cfg = _write_config(tmp_path, {**base, "out": str(out_full),
                                   "gamma1": [int(i) for i in ridge.indices]},
                        name="full.json")
    assert main(["infinity", "--config", str(cfg)]) == 0

    out_single = tmp_path / "single"
    cfg = _write_config(tmp_path, {**base, "out": str(out_single),
                                   "gamma1": [int(ridge.indices[0])]},
                        name="single.json")
    assert main(["infinity", "--config", str(cfg)]) == 0

    full_csv = (out_full / "representation.csv").read_bytes()
    single_csv = (out_single / "representation.csv").read_bytes()
    assert full_csv != single_csv
    assert _report(out_full)["summary"]["gamma1_nodes"] == len(ridge)
    assert _report(out_single)["summary"]["gamma1_nodes"] == 1


def test_verify1d_residual_table_and_verdicts(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "h": 1 / 50,
        "h_list": [1 / 25, 1 / 50],
        "out": str(out),
    })
    assert main(["verify1d", "--config", str(cfg)]) == 0

    lines = (out / "residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "example,h,sup_residual,sup_residual_interior"
    assert len(lines) == 1 + 6
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["first", "second", "third"] * 2
    for kind in ("first", "second", "third"):
        assert (out / f"{kind}_profile.csv").exists()

    s = _report(out)["summary"]
    assert s["first_lambda"] == 1.0
    assert s["second"]["a"] == pytest.approx(1 / 3, abs=1e-15)
    assert s["second"]["lambda"] == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert s["third"]["a"] == pytest.approx(1 / 5, abs=1e-15)
    assert s["third"]["lambda"] == pytest.approx(math.sqrt(5.0), abs=1e-15)
    assert s["nodal_lambda_01"] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert s["verdicts"] == {
        "max_left_of_midpoint": True,
        "unequal_nodal_lengths": True,
        "lambda_exceeds_nodal_lambda": True,
    }


def test_verify1d_alpha_one_degenerates_every_verdict(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 1.0,
        "h": 1 / 40,
        "h_list": [1 / 20, 1 / 40],
        "out": str(out),
    })
    assert main(["verify1d", "--config", str(cfg)]) == 0
    s = _report(out)["summary"]
    assert s["second"]["a"] == 0.5
    assert s["second"]["lambda"] == 2.0
    assert s["third"]["lambda"] == pytest.approx(3.0, abs=1e-12)
    assert s["verdicts"] == {
        "max_left_of_midpoint": False,
        "unequal_nodal_lengths": False,
        "lambda_exceeds_nodal_lambda": False,
    }


def test_verify1d_scans_once_per_residual_report(tmp_path, monkeypatch):
    """Each of the three profiles at each h costs one extreme-quotient scan:
    the dead band of higher_residual comes from its own scan, not a second
    holder_seminorm pass."""
    from fracteig import infinity

    calls = []
    scan = infinity._extreme_quotients

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(infinity, "_extreme_quotients", counted)
    h_list = [1 / 16, 1 / 32]
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "h": 1 / 32,
        "h_list": h_list,
        "out": str(tmp_path / "run"),
    })
    assert main(["verify1d", "--config", str(cfg)]) == 0
    assert len(calls) == 3 * len(h_list)


def test_verify1d_coarse_h_list_entry_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "h": 1 / 50,
        "h_list": [4.0],
        "out": str(tmp_path / "run"),
    })
    assert main(["verify1d", "--config", str(cfg)]) == 2
    assert "no inside nodes" in capsys.readouterr().err


def test_verify1d_empty_h_list_exits_2(tmp_path, capsys):
    """An empty list is not a missing key: it does not select the default spacings."""
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "domain": {"shape": "interval", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "h": 1 / 50,
        "h_list": [],
        "out": str(out),
    })
    assert main(["verify1d", "--config", str(cfg)]) == 2
    assert "non-empty list 'h_list'" in capsys.readouterr().err
    assert not out.exists()


def test_mask_file_roundtrip(tmp_path):
    base = {
        "domain": {"shape": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "alpha": 0.9,
        "h": 0.25,
        "p": 4.0,
    }
    out_a = tmp_path / "a"
    cfg = _write_config(tmp_path, {**base, "out": str(out_a)}, name="a.json")
    assert main(["eig", "--config", str(cfg)]) == 0
    summary_a = _report(out_a)["summary"]

    out_b = tmp_path / "b"
    mask_cfg = {
        "domain": {"shape": "mask", "path": str(out_a / "domain_mask.csv")},
        "alpha": 0.9,
        "h": 0.25,
        "p": 4.0,
        "out": str(out_b),
    }
    cfg = _write_config(tmp_path, mask_cfg, name="b.json")
    assert main(["eig", "--config", str(cfg)]) == 0
    summary_b = _report(out_b)["summary"]

    assert summary_b["inside_nodes"] == summary_a["inside_nodes"] == 9
    assert summary_b["lambda"] == pytest.approx(summary_a["lambda"], rel=1e-8)
    # the reloaded lattice reproduces the mask artifact byte for byte
    assert (out_b / "domain_mask.csv").read_bytes() == \
        (out_a / "domain_mask.csv").read_bytes()


def test_asymmetric_mask_reports_every_inside_node_as_an_orbit(tmp_path):
    dom = triangle_mask(1 / 8)
    mask = tmp_path / "mask.csv"
    write_csv(mask, ["x", "y", "inside"], mask_rows(dom))
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, domain={"shape": "mask", "path": str(mask)},
                      alpha=0.75, h=1 / 8, p=4.0)
    assert main(["eig", "--config", str(cfg)]) == 0
    s = _report(out)["summary"]
    assert s["orbits"] == s["inside_nodes"] == dom.inside_count


# Rejected mask files: header, rows and the expected message.
_BAD_MASKS = {
    # 12 nodes at h = 1/4, inside for x <= 1: the node x = 0 sits on the lattice
    # edge, where a distance over the lattice would find no complement beyond it
    "edge": ("x,inside", [f"{0.25 * k!r},{int(0.25 * k <= 1.0)}" for k in range(12)],
             "inside nodes on the lattice edge"),
    # x spacing 1/4, y spacing 1/2, inside on the row y = 0 for |x| <= 1: the
    # energy's kernel and cell area take one h for both axes
    "unequal_spacings": ("x,y,inside",
                         [f"{0.25 * i!r},{0.5 * j!r},{int(j == 0 and abs(i) <= 4)}"
                          for i in range(-8, 9) for j in range(-2, 3)],
                         "unequal axis spacings [0.25, 0.5]"),
    # one node along y: there is no spacing to read
    "single_node_axis": ("x,y,inside", ["0.0,0.0,0", "0.25,0.0,1", "0.5,0.0,0"],
                         "at least two nodes along every axis"),
    "header_only": ("x,inside", [], "no node rows"),
    # a 7 x 7 disk at h = 1/4 (21 inside nodes) whose centre row (0, 0, inside)
    # is replaced by a second copy of the row (1/4, 0, inside): the row count
    # still matches the lattice, but the centre would silently read as outside
    "repeated_node": ("x,y,inside",
                      [f"{0.25 * i!r},{0.25 * j!r},{int(i * i + j * j < 8)}"
                       if (i, j) != (0, 0) else "0.25,0.0,1"
                       for i in range(-3, 4) for j in range(-3, 4)],
                      "lists a node more than once"),
}


@pytest.mark.parametrize("case", list(_BAD_MASKS))
def test_bad_mask_file_exits_2(tmp_path, capsys, case):
    header, rows, message = _BAD_MASKS[case]
    mask = tmp_path / "mask.csv"
    mask.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"domain": {"shape": "mask", "path": str(mask)},
                                   "alpha": 0.5, "h": 0.25, "out": str(out)})
    assert main(["infinity", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [1.5, 0.0, -0.5])
def test_infinity_alpha_outside_unit_interval_exits_2(tmp_path, capsys, alpha):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {"domain": {"shape": "interval", "a": 0.0, "b": 2.0},
                                   "alpha": alpha, "h": 0.25, "out": str(out)})
    assert main(["infinity", "--config", str(cfg)]) == 2
    assert "alpha must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_tables_larger_than_memory_exit_2_before_allocating(tmp_path):
    """(0, 2) at h = 1e-5 has 199,999 inside nodes in 100,000 mirror orbits,
    whose k x k tables need 80 GB.  The child's address space is capped at
    4 GiB, so an attempt to allocate them fails inside the child instead of
    exhausting the machine."""
    import resource

    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, domain={"shape": "interval", "a": 0.0, "b": 2.0},
                      alpha=0.75, h=1e-5, p=4.0)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = str(Path(fracteig.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "fracteig.cli", "eig", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr
    assert "kernel tables for 100000 orbits of 199999 inside nodes need 74.5 GiB" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, ps", [
    ("eig", [512.0]),
    ("sweep", [512.0]),
    ("sweep", [8.0, 512.0]),
], ids=["eig", "sweep", "sweep-later-p"])
def test_overflowing_kernel_exits_2(tmp_path, capsys, monkeypatch, command, ps):
    """(0, 2) at h = 1/200, alpha = 1/2, p = 512: h^(-alpha p) exceeds double range.
    A sweep finds it before its first solve, also when p = 512 comes after p = 8."""
    calls = []
    real = solver.minimize_first

    def counted(dom, prm, opts=None):
        calls.append(prm.p)
        return real(dom, prm, opts)

    monkeypatch.setattr(solver, "minimize_first", counted)
    monkeypatch.setattr(cli, "minimize_first", counted)
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, domain={"shape": "interval", "a": 0.0, "b": 2.0},
                      alpha=0.5, h=1 / 200, p=512.0, ps=ps)
    assert main([command, "--config", str(cfg)]) == 2
    assert "p = 512.0, alpha = 0.5, h = 0.005" in capsys.readouterr().err
    assert not out.exists()
    assert calls == ([512.0] if command == "eig" else [])  # eig's one solve is what raises


@pytest.mark.parametrize("solver", [
    '{"max_iters": 1.5}',
    '{"max_iters": 1e400}',  # read as inf
    '{"max_iters": true}',
    '{"seed": 1.5, "init_mode": "random"}',
], ids=["fraction", "overflow", "bool", "seed"])
def test_non_integer_solver_option_exits_2(tmp_path, capsys, solver):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out)
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(f'{text[:-1]}, "solver": {solver}}}', encoding="utf-8")
    assert main(["eig", "--config", str(cfg)]) == 2
    assert "bad solver options" in capsys.readouterr().err
    assert not out.exists()


def test_h_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, h=0.25)
    assert main(["eig", "--config", str(cfg), "--h", "0.125"]) == 0
    rep = _report(out)
    assert rep["config"]["h"] == 0.125
    assert rep["summary"]["inside_nodes"] == 7


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    cfg = _eig_config(tmp_path, tmp_path / "run", h=0.25)
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [
    ("margin", "wide"),
    ("p", "four"),
    ("ps", [8, "x"]),
    ("ps", "8"),
    ("h_list", "abc"),
    ("h_list", "48"),
    ("gamma1", [40.9]),
    ("gamma1", "40"),
    ("gamma1", [[40]]),
    ("gamma1", [True]),
    ("gamma1", [1e20]),
    ("gamma1", [10**20]),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, key, value):
    cfg = _eig_config(tmp_path, tmp_path / "run", **{key: value})
    assert main(["eig", "--config", str(cfg)]) == 2
    assert "malformed config value" in capsys.readouterr().err


def test_nonconvergence_stays_in_band(tmp_path):
    out = tmp_path / "run"
    cfg = _eig_config(tmp_path, out, p=3.0, h=0.125,
                      solver={"max_iters": 1})
    assert main(["eig", "--config", str(cfg)]) == 0
    s = _report(out)["summary"]
    assert s["converged"] is False
    assert s["iters"] == 1
    assert s["stop_reason"] == "max_iters"
    assert np.isfinite(s["lambda"])


def test_fmt17_round_trips_doubles():
    assert fmt17(1 / 3) == "0.33333333333333331"
    assert fmt17(True) == "1"
    assert fmt17(np.bool_(False)) == "0"
    assert fmt17(7) == "7"
    assert fmt17(np.int64(-3)) == "-3"
    for x in (1 / 3, 0.1, math.pi, 1e-17, 123456.789, -0.0):
        assert float(fmt17(x)) == x
    assert float(fmt17(np.float64(2.0) / 3.0)) == 2.0 / 3.0


def test_canonical_json_sorts_keys():
    text = canonical_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')


def test_config_digest_is_order_independent():
    one = config_digest({"a": 1, "b": [1, 2]})
    two = config_digest({"b": [1, 2], "a": 1})
    assert one == two
    assert len(one) == 64
    assert config_digest({"a": 1, "b": [1, 3]}) != one


def test_write_csv_matches_fmt17(tmp_path):
    rows = [
        (-0.0, np.float64(1 / 3), 7, np.int64(-3), True, np.bool_(False), "op"),
        (5e-324, np.float64(-2.5), -1, np.int64(2 ** 40), False, np.bool_(True), "eig"),
        (1e300, np.float64(math.inf), 0, np.int64(0), True, np.bool_(True), ""),
        (-math.inf, np.float64(0.1), 2 ** 70, np.int64(-1), False, np.bool_(False), "zero"),
    ]
    path = tmp_path / "t.csv"
    write_csv(path, list("abcdefg"), rows)
    want = [",".join(v if isinstance(v, str) else fmt17(v) for v in row) for row in rows]
    assert path.read_text().splitlines() == ["a,b,c,d,e,f,g", *want]
    write_csv(path, ["a"], [])
    assert path.read_text() == "a\n"


def test_write_csv_passes_strings_through(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "value"], [("abc", 0.5), ("xy", True)])
    text = path.read_text()
    assert text == "name,value\nabc,0.5\nxy,1\n"
