"""The four benchmark workloads: CLI configs, reference results and output checks.

Each workload is one `fracteig` subcommand on a fixed config.  It comes in two
sizes: `full`, which the benchmark measures, and `tiny`, a coarse version the
self-test runs in about a second.  The references are the outputs of the
unmodified program on each config; the tolerances below say how far a later
version of the program may move them before a run counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

# A sweep root must agree with its reference to this many significant digits.
ROOT_DIGITS = 5
# The solver minimizes, so a sweep eigenvalue may fall below its reference but
# may not rise above it by more than this share.
LAMBDA_RISE_REL = 1e-9
# Relative tolerance on the disk eigenvalue.  The reference stopped on the
# 1e-12 relative-drop rule with gradient norm 8e-6, so a tighter solver may
# legitimately move it in the seventh digit.
EIG_REL = 1e-6
# Geometric quantities (inscribed radius, two-ball radius, lambda_infinity).
GEOMETRY_REL = 1e-12
# Residuals of the limiting equation: relative, plus an absolute floor for the
# first profile, whose exact residual is 0 and whose reference is roundoff.
RESIDUAL_REL = 1e-9
RESIDUAL_ABS = 1e-12

_INTERVAL = {"shape": "interval", "a": 0.0, "b": 2.0}
_DISK = {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0}


@dataclass(frozen=True)
class Size:
    """One config of a workload and the reference outputs it must reproduce."""

    config: dict
    reference: dict

    def lattices(self) -> List[list]:
        """(geometry function, arguments) for every lattice the run builds."""
        cfg = self.config
        dom = cfg["domain"]
        margin = cfg.get("margin", 2.0)
        if dom["shape"] == "interval":
            return [["build_interval", [dom["a"], dom["b"], h, margin]]
                    for h in cfg.get("h_list", [cfg["h"]])]
        return [["build_disk", [dom["center"], dom["radius"], cfg["h"], margin]]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    full: Size
    tiny: Size
    check: Callable[[Path, dict, dict], List[str]]

    def size(self, which: str) -> Size:
        return {"full": self.full, "tiny": self.tiny}[which]


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the run is correct
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= abs_tol + rel * abs(ref)


def _same_digits(value: float, ref: float, digits: int) -> bool:
    """|value - ref| is at most half a unit in the ref's last kept digit."""
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - (digits - 1))
    return abs(value - ref) <= 0.5 * unit


def _check_sweep(out: Path, report: dict, ref: dict) -> List[str]:
    rows = _read_csv(out / "sweep.csv")
    if [float(r["p"]) for r in rows] != [p for p, _, _ in ref["rows"]]:
        return [f"sweep.csv exponents {[r['p'] for r in rows]} differ from the reference"]
    problems = []
    for row, (p, lam_ref, root_ref) in zip(rows, ref["rows"]):
        root, lam = float(row["root"]), float(row["lambda"])
        if not _same_digits(root, root_ref, ROOT_DIGITS):
            problems.append(f"p={p}: root {root!r} differs from {root_ref!r} "
                            f"in the first {ROOT_DIGITS} significant digits")
        if lam > lam_ref * (1.0 + LAMBDA_RISE_REL):
            problems.append(f"p={p}: lambda {lam!r} is above the reference {lam_ref!r}")
    return problems


def _check_eig(out: Path, report: dict, ref: dict) -> List[str]:
    problems = []
    lam = report["summary"]["lambda"]
    if not _close(lam, ref["lambda"], EIG_REL):
        problems.append(f"lambda {lam!r} differs from {ref['lambda']!r} "
                        f"by more than {EIG_REL:g} relative")
    u = [float(r["u"]) for r in _read_csv(out / "eigenfunction.csv")]
    if len(u) != ref["inside_nodes"] or min(u) <= 0.0:
        problems.append(f"eigenfunction has {len(u)} values (expected "
                        f"{ref['inside_nodes']}), minimum {min(u)!r}; must be positive")
    return problems


def _check_infinity(out: Path, report: dict, ref: dict) -> List[str]:
    summary = report["summary"]
    problems = []
    for key, rel in [("lambda_infinity", GEOMETRY_REL), ("inscribed_radius", GEOMETRY_REL),
                     ("r2_radius", GEOMETRY_REL), ("sup_residual", RESIDUAL_REL)]:
        if not _close(summary[key], ref[key], rel):
            problems.append(f"{key} {summary[key]!r} differs from {ref[key]!r} "
                            f"by more than {rel:g} relative")
    return problems


def _check_verify1d(out: Path, report: dict, ref: dict) -> List[str]:
    rows = _read_csv(out / "residuals.csv")
    got = [(r["example"], float(r["h"])) for r in rows]
    if got != [(kind, h) for kind, h, _, _ in ref["residuals"]]:
        return [f"residuals.csv rows {got} differ from the reference"]
    problems = []
    for row, (kind, h, sup_ref, interior_ref) in zip(rows, ref["residuals"]):
        for col, want in [("sup_residual", sup_ref), ("sup_residual_interior", interior_ref)]:
            if not _close(float(row[col]), want, RESIDUAL_REL, RESIDUAL_ABS):
                problems.append(f"{kind} h={h}: {col} {row[col]} differs from {want!r}")
    if report["summary"]["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {report['summary']['verdicts']} differ from {ref['verdicts']}")
    return problems


def check_output(wl: Workload, size: str, out: Path, returncode: int):
    """Check one finished CLI run; return (problems, sha256 of every CSV)."""
    if returncode != 0:
        return [f"exit code {returncode}"], {}
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"report.json unreadable: {exc}"], {}
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.glob("*.csv"))}
    try:
        problems = wl.check(out, report, wl.size(size).reference)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems = [f"output check could not read the outputs: {exc!r}"]
    return problems, hashes


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

_VERDICTS = {"lambda_exceeds_nodal_lambda": True, "max_left_of_midpoint": True,
             "unequal_nodal_lengths": True}

WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in [
    Workload(
        name="sweep1d",
        command="sweep",
        full=Size(
            config={"domain": _INTERVAL, "alpha": 0.5, "h": 0.01,
                    "ps": [8.0, 16.0, 32.0, 64.0]},
            reference={"rows": [
                (8.0, 1.7658135328661888, 1.0736632921216567),
                (16.0, 0.6751644861181655, 0.9757489652228638),
                (32.0, 0.29568468460880976, 0.9626388856283133),
                (64.0, 0.15036781709719996, 0.970829680477431),
            ]}),
        tiny=Size(
            config={"domain": _INTERVAL, "alpha": 0.5, "h": 0.05, "ps": [8.0, 16.0]},
            reference={"rows": [
                (8.0, 1.8526101103036157, 1.080122477066774),
                (16.0, 0.7562839401097164, 0.9826928697180344),
            ]}),
        check=_check_sweep,
    ),
    Workload(
        name="disk_eig",
        command="eig",
        full=Size(
            config={"domain": _DISK, "alpha": 0.75, "h": 0.0625, "p": 4.0, "margin": 2.0},
            reference={"lambda": 16.19775562133365, "inside_nodes": 793}),
        tiny=Size(
            config={"domain": _DISK, "alpha": 0.75, "h": 0.25, "p": 4.0, "margin": 2.0},
            reference={"lambda": 16.70121721222809, "inside_nodes": 45}),
        check=_check_eig,
    ),
    Workload(
        name="disk_infinity",
        command="infinity",
        full=Size(
            config={"domain": _DISK, "alpha": 0.5, "h": 0.03125, "margin": 1.0},
            reference={"lambda_infinity": 1.0, "inscribed_radius": 1.0, "r2_radius": 0.5,
                       "sup_residual": 0.755058722036784}),
        tiny=Size(
            config={"domain": _DISK, "alpha": 0.5, "h": 0.125, "margin": 1.0},
            reference={"lambda_infinity": 1.0, "inscribed_radius": 1.0, "r2_radius": 0.5,
                       "sup_residual": 0.4941837185248011}),
        check=_check_infinity,
    ),
    Workload(
        name="verify1d",
        command="verify1d",
        full=Size(
            config={"domain": _INTERVAL, "alpha": 0.5, "h": 0.0078125,
                    "h_list": [0.0078125, 0.00390625, 0.001953125, 0.0009765625]},
            reference={"verdicts": _VERDICTS, "residuals": [
                ("first", 0.0078125, 5.551115123125783e-16, 5.551115123125783e-16),
                ("second", 0.0078125, 0.25433853606887746, 0.25433853606887746),
                ("third", 0.0078125, 0.48419453567849646, 0.48419453567849646),
                ("first", 0.00390625, 1.5543122344752192e-15, 1.5543122344752192e-15),
                ("second", 0.00390625, 0.24028773026664596, 0.24028773026664596),
                ("third", 0.00390625, 0.38172035741959465, 0.38172035741959465),
                ("first", 0.001953125, 1.5543122344752192e-15, 1.5543122344752192e-15),
                ("second", 0.001953125, 0.2316272295608941, 0.2316272295608941),
                ("third", 0.001953125, 0.38172035741959465, 0.38172035741959465),
                ("first", 0.0009765625, 1.7763568394002505e-15, 1.7763568394002505e-15),
                ("second", 0.0009765625, 0.21718382164210204, 0.21718382164210204),
                ("third", 0.0009765625, 0.31860398684096203, 0.31860398684096203),
            ]}),
        tiny=Size(
            config={"domain": _INTERVAL, "alpha": 0.5, "h": 0.0625,
                    "h_list": [0.0625, 0.03125]},
            reference={"verdicts": _VERDICTS, "residuals": [
                ("first", 0.0625, 3.3306690738754696e-16, 3.3306690738754696e-16),
                ("second", 0.0625, 0.40713749626717277, 0.3506138209649948),
                ("third", 0.0625, 0.6685604314219074, 0.6685604314219074),
                ("first", 0.03125, 3.3306690738754696e-16, 3.3306690738754696e-16),
                ("second", 0.03125, 0.38640828654112847, 0.38640828654112847),
                ("third", 0.03125, 0.6685604314219074, 0.6685604314219074),
            ]}),
        check=_check_verify1d,
    ),
]}
