"""Command-line entry points: eig, sweep, infinity, verify1d.

Every run reads a JSON config, computes, and writes artifacts (CSV tables,
report.json) into an output directory.  Each `cmd_*` validates and computes
and writes nothing; `_run` writes what it returns, and creates the output
directory only then.  Runs are deterministic: identical config and package
version produce byte-identical CSV files and an identical report.json up to
the wall_time_s field.

Exit codes: 0 for completed runs (including honest non-convergence, which is
reported in-band via converged flags), 2 for a bad config or environment.
The library raises ValueError for input it rejects, and any such error from
a subcommand exits 2 with its message and leaves no output directory; so do
the CLI's own ConfigErrors (unreadable or malformed config, bad mask file).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .closedform1d import first_1d, sample, second_1d, third_1d
from .energy import FracParams
from .geometry import (
    GridDomain,
    _TooLarge,
    _unique,
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
    coord_header,
    function_rows,
    infinity_header,
    write_csv,
    write_json,
    write_mask,
)
from .solver import SolverOptions, minimize_first, p2_oracle, p_sweep

__all__ = ["RunConfig", "main"]

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


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------


def _load_mask_csv(path: Path, h: float) -> GridDomain:
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
        ax = _unique(coords[:, j])
        if ax.size < 2:
            raise ConfigError(f"mask file {path} needs at least two nodes along every axis")
        steps = np.diff(ax)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9 * abs(steps[0])):
            raise ConfigError(f"mask file {path} is not a uniform lattice")
        axes.append(ax)
    # the energy's offset kernel and cell area take one spacing for every axis
    spacings = [float(ax[1] - ax[0]) for ax in axes]
    if not all(math.isclose(s, spacings[0], rel_tol=1e-9) for s in spacings):
        raise ConfigError(f"mask file {path} has unequal axis spacings {spacings}")
    if not math.isclose(spacings[0], h, rel_tol=1e-9):
        raise ConfigError(f"mask file {path} has spacing {spacings[0]!r}, not h = {h!r}")
    shape = tuple(len(ax) for ax in axes)
    if coords.shape[0] != int(np.prod(shape)):
        raise ConfigError(f"mask file {path} does not cover the full lattice")
    inside = np.zeros(shape, dtype=bool)
    pos = tuple(np.searchsorted(axes[j], coords[:, j]) for j in range(dim))
    if _unique(np.ravel_multi_index(pos, shape)).size != coords.shape[0]:
        raise ConfigError(f"mask file {path} lists a node more than once")
    inside[pos] = flags
    # distances to the complement see only the lattice, so it must surround the region
    if any(np.moveaxis(inside, j, 0)[[0, -1]].any() for j in range(dim)):
        raise ConfigError(f"mask file {path} has inside nodes on the lattice edge; "
                          "pad the lattice with outside nodes")
    return GridDomain(h=spacings[0], axes=tuple(axes), inside=inside)


def build_domain(cfg: RunConfig) -> GridDomain:
    spec = cfg.domain
    kind = spec.get("shape")
    try:
        if kind == "interval":
            return build_interval(float(spec["a"]), float(spec["b"]), cfg.h, cfg.margin)
        if kind == "disk":
            return build_disk(spec["center"], float(spec["radius"]), cfg.h, cfg.margin)
        if kind == "rectangle":
            return build_rectangle(spec["lo"], spec["hi"], cfg.h, cfg.margin)
        if kind == "mask":
            return _load_mask_csv(Path(spec["path"]), cfg.h)
    except _TooLarge:  # too large for memory is not bad input: no prefix
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain description: {exc}") from exc
    raise ConfigError(f"unknown domain shape {kind!r}")


_SOLVER_KEYS = tuple(f.name for f in fields(SolverOptions) if f.name != "init_values")


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


# ---------------------------------------------------------------------------
# subcommands: each validates and computes, writes nothing, and returns
# (lattice whose mask the run writes or None, [(output key, file name,
# header, rows)], summary).  A ValueError raised inside one reaches _run,
# which turns it into exit 2; a handler here only adds context to a message.
# ---------------------------------------------------------------------------


def cmd_eig(cfg: RunConfig) -> tuple:
    """first eigenpair at a single exponent p"""
    if cfg.p is None:
        raise ConfigError("eig requires a single exponent 'p' in the config")
    dom = build_domain(cfg)
    prm = FracParams(cfg.alpha, cfg.p)
    opts = _solver_options(cfg)
    # the oracle's size depends only on the lattice, so it is checked before the solve
    oracle = p2_oracle(dom, cfg.alpha) if cfg.p == 2.0 else None
    res = minimize_first(dom, prm, opts)
    summary = {
        "alpha": cfg.alpha,
        "p": cfg.p,
        "lambda": res.lam,
        "iters": res.iters,
        "evals": res.evals,
        "hess_products": res.hess_products,
        "stop_reason": res.stop_reason,
        "final_grad_norm": res.final_grad_norm,
        "converged": res.converged,
        "inside_nodes": dom.inside_count,
        "orbits": res.orbits,
        "flags": prm.flags(dom.dim),
    }
    if oracle is not None:
        summary["oracle_lambda"] = oracle.lam
        summary["oracle_gap"] = abs(oracle.lam - res.lam)
    return dom, [("eigenfunction", "eigenfunction.csv", [*coord_header(dom), "u"],
                  function_rows(res.u))], summary


def cmd_sweep(cfg: RunConfig) -> tuple:
    """warm-started eigenvalue sweep over ascending p"""
    if not cfg.ps:
        raise ConfigError("sweep requires a non-empty ascending list 'ps'")
    dom = build_domain(cfg)
    result = p_sweep(dom, cfg.alpha, cfg.ps, _solver_options(cfg))

    rows = [(r.p, r.lam, r.root, result.target, r.converged, r.iters) for r in result.rows]
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
        "hess_products": [r.hess_products for r in result.rows],
        "orbits": [r.orbits for r in result.rows],
    }
    return dom, [("sweep", "sweep.csv",
                  ["p", "lambda", "root", "target", "converged", "iters"], rows)], summary


def cmd_infinity(cfg: RunConfig) -> tuple:
    """limiting-equation report for a representation eigenfunction"""
    dom = build_domain(cfg)
    delta = distance_to_complement(dom)
    lam = lambda_infinity(dom, cfg.alpha)
    ridge = high_ridge(delta)
    gamma1 = ridge
    if cfg.gamma1 is not None:
        try:
            gamma1 = NodeSet(dom, np.asarray(cfg.gamma1, dtype=np.int64))
        except ValueError as exc:
            raise ConfigError(f"bad gamma1 node list: {exc}") from exc
    u = representation(dom, gamma1, cfg.alpha)
    report = first_residual(u, cfg.alpha, lam)

    tables = [
        ("representation", "representation.csv", [*coord_header(dom), "u"], function_rows(u)),
        ("report_table", "infinity_report.csv", infinity_header(dom), report.rows()),
    ]
    summary = {
        "alpha": cfg.alpha,
        "lambda_infinity": lam,
        "inscribed_radius": inscribed_radius(delta),
        "r2_radius": r2_radius(dom),
        "ridge_nodes": len(ridge),
        "gamma1_nodes": len(gamma1),
        **report.summary(),
    }
    return dom, tables, summary


def cmd_verify1d(cfg: RunConfig) -> tuple:
    """closed-form 1D profiles: constants, residual refinement, verdicts"""
    alpha = cfg.alpha
    examples = [first_1d(alpha), second_1d(alpha), third_1d(alpha)]
    hs = _DEFAULT_VERIFY1D_H if cfg.h_list is None else cfg.h_list
    if not hs:
        raise ConfigError("verify1d requires a non-empty list 'h_list' (omit it for the default)")
    finest = min(hs)
    try:
        doms = [build_interval(0.0, 2.0, h, cfg.margin) for h in hs]
        nodal_dom = build_interval(0.0, 1.0, finest, cfg.margin)
    except _TooLarge:  # too large for memory is not bad input: no prefix
        raise
    except ValueError as exc:
        raise ConfigError(f"bad h_list or margin: {exc}") from exc

    tables = []
    residuals = []
    for h, dom in zip(hs, doms):
        for ex in examples:
            u = sample(ex, dom)
            if ex.kind == "first":
                rep = first_residual(u, alpha, ex.lam)
            else:
                rep = higher_residual(u, alpha, ex.lam)
            residuals.append((ex.kind, h, rep.sup_norm(), rep.sup_norm(exclude_collar=True)))
            if h == finest:
                tables.append((f"{ex.kind}_profile", f"{ex.kind}_profile.csv", ["x", "u"],
                               function_rows(u)))
    tables.append(("residuals", "residuals.csv",
                   ["example", "h", "sup_residual", "sup_residual_interior"], residuals))

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
    return None, tables, summary


# name -> subcommand; each one's docstring is its help text
_COMMANDS = {
    "eig": cmd_eig,
    "sweep": cmd_sweep,
    "infinity": cmd_infinity,
    "verify1d": cmd_verify1d,
}


def _run(cfg: RunConfig) -> None:
    """Run cfg's subcommand, then write its outputs and report.json.  A
    ValueError from the subcommand is rejected input and becomes a
    ConfigError; the output directory is made only after the subcommand
    returns, so no ConfigError leaves one."""
    started = time.perf_counter()
    try:
        dom, tables, summary = _COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = cfg.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    outputs = {}
    if dom is not None:
        write_mask(out / "domain_mask.csv", dom)
        outputs["mask"] = "domain_mask.csv"
    for key, name, header, rows in tables:
        write_csv(out / name, header, rows)
        outputs[key] = name
    echo = cfg.echo()
    write_json(out / "report.json", {
        "config": echo, "config_sha256": config_digest(echo), "version": __version__,
        "command": cfg.command, "wall_time_s": time.perf_counter() - started,
        "outputs": outputs, "summary": summary})
    print(out / "report.json")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracteig",
        description="Grid laboratory for nonlocal fractional p-eigenvalue problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--margin", type=float, default=None,
                         help="box margin, in diagonals of the region's bounding box "
                              "(overrides config)")
        cmd.add_argument("--h", type=float, default=None,
                         help="lattice spacing (overrides config)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; return the exit code (0, or 2 for a ConfigError).

    It first calls `gc.freeze()`, which moves every object alive at that
    moment, chiefly the ~22,000 that importing numpy and fracteig made, to
    the collector's permanent generation.  Those live until exit anyway, so
    the interpreter's exit collection (15-21 ms of a 0.13-0.16 s run) and
    any full collection during the run walked them to find no garbage; now
    they walk only what the run allocates (about 400 objects tracked after
    an infinity run).  No computed value or output byte changes.  A caller
    that runs `main` in process has its own heap frozen too, so any cyclic
    garbage not yet collected when it calls `main` stays until exit;
    `gc.unfreeze()` hands the frozen objects back to the collector.
    """
    gc.freeze()
    args = _parser().parse_args(argv)
    try:
        _run(RunConfig.load(args.command, args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
