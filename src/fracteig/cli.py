"""Command-line entry points: eig, sweep, infinity, verify1d.

Every run reads a JSON config, computes, and writes artifacts (CSV tables,
report.json) into an output directory.  Runs are deterministic: identical
config and package version produce byte-identical CSV files and an identical
report.json up to the wall_time_s field.

Exit codes: 0 for completed runs (including honest non-convergence, which is
reported in-band via converged flags), 2 for configuration or environment
errors (bad paths, malformed config, invalid exponent ranges, empty p lists).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .closedform1d import first_1d, sample, second_1d, third_1d
from .energy import FracParams
from .geometry import (
    GridDomain,
    build_disk,
    build_interval,
    build_rectangle,
    distance_to_complement,
    high_ridge,
    inscribed_radius,
    NodeSet,
)
from .infinity import (
    first_residual,
    higher_residual,
    lambda_infinity,
    r2_radius,
    representation,
)
from .reports import (
    config_digest,
    function_rows,
    infinity_header,
    mask_rows,
    write_csv,
    write_json,
)
from .solver import SolverOptions, minimize_first, p2_oracle, p_sweep

__all__ = ["RunConfig", "RunReport", "main"]

_DEFAULT_VERIFY1D_H = [1 / 50, 1 / 100, 1 / 200, 1 / 400]


class ConfigError(Exception):
    """Bad configuration or environment; maps to a nonzero exit code."""


def _float_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {value!r}")
    return [float(v) for v in value]


_INT64 = range(-2**63, 2**63)


def _int_list(value) -> list:
    # type() rather than isinstance(): a JSON true or false is not a node index
    if not isinstance(value, list) or any(type(v) is not int or v not in _INT64
                                          for v in value):
        raise TypeError(f"expected a JSON list of 64-bit integers, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Validated run parameters (config file merged with CLI overrides)."""

    command: str
    domain: dict
    alpha: float
    h: float
    margin: float = 2.0
    p: Optional[float] = None
    ps: Optional[list] = None
    solver: dict = field(default_factory=dict)
    gamma1: Optional[list] = None
    h_list: Optional[list] = None
    out: Path = Path(".")
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, command: str, args: argparse.Namespace) -> "RunConfig":
        path = Path(args.config)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")

        merged = dict(raw)
        if args.h is not None:
            merged["h"] = args.h
        if args.margin is not None:
            merged["margin"] = args.margin
        if args.out is not None:
            merged["out"] = args.out

        try:
            domain = merged["domain"]
            alpha = float(merged["alpha"])
            h = float(merged["h"])
            margin = float(merged.get("margin", 2.0))
            p = float(merged["p"]) if "p" in merged else None
            ps = _float_list(merged["ps"]) if "ps" in merged else None
            h_list = _float_list(merged["h_list"]) if "h_list" in merged else None
            gamma1 = _int_list(merged["gamma1"]) if "gamma1" in merged else None
        except KeyError as exc:
            raise ConfigError(f"config missing required key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        if not isinstance(domain, dict) or "shape" not in domain:
            raise ConfigError("config 'domain' must be an object with a 'shape'")
        if not isinstance(merged.get("solver", {}), dict):
            raise ConfigError("config 'solver' must be an object")

        return cls(
            command=command,
            domain=domain,
            alpha=alpha,
            h=h,
            margin=margin,
            p=p,
            ps=ps,
            solver=dict(merged.get("solver", {})),
            gamma1=gamma1,
            h_list=h_list,
            out=Path(merged.get("out", ".")),
            raw=merged,
        )

    def echo(self) -> dict:
        d = dict(self.raw)
        d["out"] = str(self.out)
        d["command"] = self.command
        return d


@dataclass
class RunReport:
    """What a run produced: config echo + digest, version, timing, outputs."""

    config: dict
    config_sha256: str
    version: str
    command: str
    wall_time_s: float
    outputs: dict
    summary: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "outputs": self.outputs,
            "summary": self.summary,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
        }


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------


def _load_mask_csv(path: Path, margin: float) -> GridDomain:
    try:
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read mask file {path}: {exc}") from exc
    if not text:
        raise ConfigError(f"mask file {path} is empty")
    header = text[0].split(",")
    dim = len(header) - 1
    if header[-1] != "inside" or dim not in (1, 2):
        raise ConfigError(f"mask file {path} must have columns x[,y],inside")
    if len(text) < 2:
        raise ConfigError(f"mask file {path} has no node rows")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    coords, flags = data[:, :dim], data[:, dim] != 0.0
    axes = []
    for j in range(dim):
        ax = np.unique(coords[:, j])
        if ax.size < 2:
            raise ConfigError(f"mask file {path} needs at least two nodes along every axis")
        steps = np.diff(ax)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9 * abs(steps[0])):
            raise ConfigError(f"mask file {path} is not a uniform lattice")
        axes.append(ax)
    # the energy's offset kernel and cell area take one spacing for every axis
    spacings = [float(ax[1] - ax[0]) for ax in axes]
    h = spacings[0]
    if not all(math.isclose(s, h, rel_tol=1e-9) for s in spacings):
        raise ConfigError(f"mask file {path} has unequal axis spacings {spacings}")
    shape = tuple(len(ax) for ax in axes)
    if coords.shape[0] != int(np.prod(shape)):
        raise ConfigError(f"mask file {path} does not cover the full lattice")
    inside = np.zeros(shape, dtype=bool)
    pos = tuple(np.searchsorted(axes[j], coords[:, j]) for j in range(dim))
    if np.unique(np.ravel_multi_index(pos, shape)).size != coords.shape[0]:
        raise ConfigError(f"mask file {path} lists a node more than once")
    inside[pos] = flags
    # distances to the complement see only the lattice, so it must surround the region
    if any(np.moveaxis(inside, j, 0)[[0, -1]].any() for j in range(dim)):
        raise ConfigError(f"mask file {path} has inside nodes on the lattice edge; "
                          "pad the lattice with outside nodes")
    return GridDomain(dim=dim, h=h, axes=tuple(axes), inside=inside,
                      shape_tag=None, margin=margin)


def build_domain(cfg: RunConfig) -> GridDomain:
    spec = cfg.domain
    kind = spec.get("shape")
    try:
        if kind == "interval":
            return build_interval(float(spec["a"]), float(spec["b"]), cfg.h, cfg.margin)
        if kind == "disk":
            return build_disk([float(c) for c in spec["center"]],
                              float(spec["radius"]), cfg.h, cfg.margin)
        if kind == "rectangle":
            return build_rectangle([float(c) for c in spec["lo"]],
                                   [float(c) for c in spec["hi"]], cfg.h, cfg.margin)
        if kind == "mask":
            return _load_mask_csv(Path(spec["path"]), cfg.margin)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain description: {exc}") from exc
    raise ConfigError(f"unknown domain shape {kind!r}")


_SOLVER_KEYS = ("max_iters", "tol_rel_q", "tol_grad", "step0", "backtrack_factor",
                "init_mode", "seed")


def _solver_options(cfg: RunConfig) -> SolverOptions:
    s = cfg.solver
    unknown = sorted(set(s) - set(_SOLVER_KEYS))
    if unknown:
        raise ConfigError(f"unknown solver option(s) {unknown}; "
                          f"allowed: {', '.join(_SOLVER_KEYS)}")
    try:
        return SolverOptions(**s)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


def _prepare_out(cfg: RunConfig) -> Path:
    out = cfg.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _coord_header(dom: GridDomain) -> list:
    return ["x"] if dom.dim == 1 else ["x", "y"]


def _write_mask(dom: GridDomain, out: Path) -> str:
    path = out / "domain_mask.csv"
    write_csv(path, [*_coord_header(dom), "inside"], mask_rows(dom))
    return path.name


def _finish(cfg: RunConfig, outputs: dict, summary: dict, started: float) -> RunReport:
    out = cfg.out
    report = RunReport(
        config=cfg.echo(),
        config_sha256=config_digest(cfg.echo()),
        version=__version__,
        command=cfg.command,
        wall_time_s=time.perf_counter() - started,
        outputs=outputs,
        summary=summary,
    )
    write_json(out / "report.json", report.to_dict())
    print(str(out / "report.json"))
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_eig(cfg: RunConfig) -> RunReport:
    started = time.perf_counter()
    if cfg.p is None:
        raise ConfigError("eig requires a single exponent 'p' in the config")
    dom = build_domain(cfg)
    try:
        prm = FracParams(cfg.alpha, cfg.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    opts = _solver_options(cfg)

    try:
        res = minimize_first(dom, prm, opts)
    except ValueError as exc:  # exponents out of window, tables too large, or overflowing
        raise ConfigError(str(exc)) from exc
    out = _prepare_out(cfg)
    outputs = {"mask": _write_mask(dom, out)}
    path = out / "eigenfunction.csv"
    write_csv(path, [*_coord_header(dom), "u"], function_rows(res.u))
    outputs["eigenfunction"] = path.name

    summary = {
        "alpha": cfg.alpha,
        "p": cfg.p,
        "lambda": res.lam,
        "iters": res.iters,
        "evals": res.evals,
        "stop_reason": res.stop_reason,
        "final_grad_norm": res.final_grad_norm,
        "converged": res.converged,
        "inside_nodes": dom.inside_count,
        "orbits": res.orbits,
        "flags": prm.flags(dom.dim),
    }
    if cfg.p == 2.0:
        oracle = p2_oracle(dom, cfg.alpha)
        summary["oracle_lambda"] = oracle.lam
        summary["oracle_gap"] = abs(oracle.lam - res.lam)
    return _finish(cfg, outputs, summary, started)


def cmd_sweep(cfg: RunConfig) -> RunReport:
    started = time.perf_counter()
    if not cfg.ps:
        raise ConfigError("sweep requires a non-empty ascending list 'ps'")
    dom = build_domain(cfg)
    try:
        result = p_sweep(dom, cfg.alpha, cfg.ps, _solver_options(cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _prepare_out(cfg)

    outputs = {"mask": _write_mask(dom, out)}
    path = out / "sweep.csv"
    write_csv(path, ["p", "lambda", "root", "target", "converged", "iters"],
              [(r.p, r.lam, r.root, result.target, r.converged, r.iters)
               for r in result.rows])
    outputs["sweep"] = path.name

    gaps = result.gaps()
    summary = {
        "alpha": cfg.alpha,
        "target": result.target,
        "final_gap": gaps[-1],
        "gaps": gaps,
        "all_converged": all(r.converged for r in result.rows),
        "stop_reasons": [r.stop_reason for r in result.rows],
        "iters": [r.iters for r in result.rows],
        "evals": [r.evals for r in result.rows],
        "orbits": [r.orbits for r in result.rows],
    }
    return _finish(cfg, outputs, summary, started)


def cmd_infinity(cfg: RunConfig) -> RunReport:
    started = time.perf_counter()
    dom = build_domain(cfg)
    try:
        lam = lambda_infinity(dom, cfg.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    delta = distance_to_complement(dom)
    ridge = high_ridge(delta)
    gamma1 = ridge
    if cfg.gamma1 is not None:
        try:
            gamma1 = NodeSet(dom, np.asarray(cfg.gamma1, dtype=np.int64))
        except ValueError as exc:
            raise ConfigError(f"bad gamma1 node list: {exc}") from exc
    try:
        u = representation(dom, gamma1, cfg.alpha, delta=delta)
    except ValueError as exc:  # gamma1 off the ridge
        raise ConfigError(str(exc)) from exc
    report = first_residual(u, cfg.alpha, lam, delta)
    out = _prepare_out(cfg)

    outputs = {"mask": _write_mask(dom, out)}
    path = out / "representation.csv"
    write_csv(path, [*_coord_header(dom), "u"], function_rows(u))
    outputs["representation"] = path.name
    path = out / "infinity_report.csv"
    write_csv(path, infinity_header(dom), report.rows())
    outputs["report_table"] = path.name

    summary = {
        "alpha": cfg.alpha,
        "lambda_infinity": lam,
        "inscribed_radius": inscribed_radius(delta),
        "r2_radius": r2_radius(dom),
        "ridge_nodes": len(ridge),
        "gamma1_nodes": len(gamma1),
        **report.summary(),
    }
    return _finish(cfg, outputs, summary, started)


def cmd_verify1d(cfg: RunConfig) -> RunReport:
    started = time.perf_counter()
    alpha = cfg.alpha
    try:
        examples = [first_1d(alpha), second_1d(alpha), third_1d(alpha)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    hs = _DEFAULT_VERIFY1D_H if cfg.h_list is None else cfg.h_list
    if not hs:
        raise ConfigError("verify1d requires a non-empty list 'h_list' (omit it for the default)")
    finest = min(hs)
    try:
        doms = [build_interval(0.0, 2.0, h, cfg.margin) for h in hs]
        nodal_dom = build_interval(0.0, 1.0, finest, cfg.margin)
    except ValueError as exc:
        raise ConfigError(f"bad h_list or margin: {exc}") from exc
    out = _prepare_out(cfg)

    outputs = {}
    table = []
    for h, dom in zip(hs, doms):
        delta = distance_to_complement(dom)
        for ex in examples:
            u = sample(ex, dom)
            if ex.kind == "first":
                rep = first_residual(u, alpha, ex.lam, delta)
            else:
                rep = higher_residual(u, alpha, ex.lam, delta)
            table.append((ex.kind, h, rep.sup_norm(), rep.sup_norm(exclude_collar=True)))
            if h == finest:
                path = out / f"{ex.kind}_profile.csv"
                write_csv(path, ["x", "u"], function_rows(u))
                outputs[f"{ex.kind}_profile"] = path.name

    path = out / "residuals.csv"
    write_csv(path, ["example", "h", "sup_residual", "sup_residual_interior"], table)
    outputs["residuals"] = path.name

    second, third = examples[1], examples[2]
    lam_nodal = lambda_infinity(nodal_dom, alpha)
    verdicts = {
        "max_left_of_midpoint": bool(second.a < 0.5),
        "unequal_nodal_lengths": bool(
            not math.isclose(1.0 - third.a, (1.0 + third.a) / 2.0,
                             rel_tol=0.0, abs_tol=1e-12)),
        "lambda_exceeds_nodal_lambda": bool(second.lam > lam_nodal),
    }
    summary = {
        "alpha": alpha,
        "second": {"a": second.a, "lambda": second.lam},
        "third": {"a": third.a, "lambda": third.lam},
        "first_lambda": examples[0].lam,
        "nodal_lambda_01": lam_nodal,
        "verdicts": verdicts,
        "h_list": hs,
    }
    return _finish(cfg, outputs, summary, started)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracteig",
        description="Grid laboratory for nonlocal fractional p-eigenvalue problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("eig", "first eigenpair at a single exponent p"),
        ("sweep", "warm-started eigenvalue sweep over ascending p"),
        ("infinity", "limiting-equation report for a representation eigenfunction"),
        ("verify1d", "closed-form 1D profiles: constants, residual refinement, verdicts"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--margin", type=float, default=None,
                         help="box margin in region diameters (overrides config)")
        cmd.add_argument("--h", type=float, default=None,
                         help="lattice spacing (overrides config)")
    return parser


_COMMANDS = {
    "eig": cmd_eig,
    "sweep": cmd_sweep,
    "infinity": cmd_infinity,
    "verify1d": cmd_verify1d,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.command, args)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
