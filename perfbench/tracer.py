"""Span tracing of one fracteig CLI run, and the per-layer figures drawn from it.

Run as a script, this file stands in for the `fracteig` entry point:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json <subcommand> --config CFG ...

It wraps the public functions of each fracteig module (the layers) in every
module namespace that binds them, plus four `QuotientTables` methods, runs
`fracteig.cli.main` inside a root span, and writes the spans to SPANS.json when
the run ends.  Nothing under `src/` changes: the wraps are installed at run
time from this file.  Each span records its name, layer, start, end and the
span that was open when it began; some also record counts (iterations, table
sizes, rows written).

`layer_metrics` and `layer_table` turn a span list into the per-layer metrics
of BENCHMARK.json and a per-layer self-time table.  A span's self time is its
duration minus the durations of its children; the root span's self time is
time the wraps do not attribute to any layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("geometry", "energy", "solver", "infinity", "closedform1d", "reports", "cli")
ROOT = "main"

# Functions wrapped per module; a dotted name is a method patched on its class.
TRACED = {
    "fracteig.geometry": ["build_interval", "build_disk", "build_rectangle",
                          "distance_to_complement", "distance_to_set", "high_ridge",
                          "inscribed_radius"],
    "fracteig.energy": ["QuotientTables.__init__", "QuotientTables.quotient",
                        "QuotientTables.gradient", "QuotientTables.normalize"],
    "fracteig.solver": ["minimize_first", "p_sweep", "p2_oracle"],
    "fracteig.infinity": ["first_residual", "higher_residual", "holder_seminorm",
                          "representation", "lambda_infinity", "r2_radius"],
    "fracteig.closedform1d": ["first_1d", "second_1d", "third_1d", "sample"],
    "fracteig.reports": ["write_csv", "write_json"],
    "fracteig.cli": ["cmd_eig", "cmd_sweep", "cmd_infinity", "cmd_verify1d"],
}

# Per-layer metrics: name -> unit.  "count" is counted at a span, "computed"
# units are derived from array sizes, not measured.
PER_LAYER = {
    "geometry.build_s": "s",
    "geometry.distance_s": "s",
    "energy.tables_build_s": "s",
    "energy.table_bytes": "bytes.computed",
    "energy.quotient_calls": "count",
    "energy.quotient_s": "s",
    "energy.gradient_calls": "count",
    "energy.gradient_s": "s",
    "energy.normalize_s": "s",
    "energy.pairs_per_eval": "count.computed",
    "energy.cross_pairs": "count.computed",
    "solver.iters": "count",
    "solver.accept_ratio": "ratio",
    "solver.self_s": "s",
    "infinity.scan_s": "s",
    "infinity.scan_pairs": "count.computed",
    "infinity.r2_s": "s",
    "infinity.representation_s": "s",
    "closedform1d.sample_s": "s",
    "reports.write_s": "s",
    "reports.rows": "count",
    "reports.bytes": "bytes",
    "cli.self_s": "s",
    "trace.in_process_s": "s",
    "trace.unattributed_s": "s",
    "trace.coverage": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# The layer spans must cover at least this share of the root span; the first
# START_ALLOWANCE_S of unattributed time (argument parsing, config loading)
# are always allowed, so tiny runs are not held to the share.
MIN_COVERAGE = 0.9
START_ALLOWANCE_S = 0.05

_TABLES = "energy.QuotientTables.__init__"


# ---------------------------------------------------------------------------
# recording (child process)
# ---------------------------------------------------------------------------


def _table_counts(args, result):
    tables = args[0]
    import numpy as np

    nbytes = sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))
    return {"m": tables.dom.inside_count, "N": tables.dom.n_nodes, "bytes": nbytes}


def _residual_pairs(args, result):
    dom = args[0].domain
    return {"pairs": dom.inside_count * dom.n_nodes}


def _seminorm_pairs(args, result):
    import numpy as np

    u = args[0]
    return {"pairs": int(np.count_nonzero(u.flat())) * u.domain.n_nodes}


def _file_counts(args, result):
    data = Path(args[0]).read_bytes()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


# Extra fields recorded when a span ends; the time they take falls to the parent.
_COUNTS = {
    "solver.minimize_first": lambda args, result: {"iters": result.iters},
    _TABLES: _table_counts,
    "infinity.first_residual": _residual_pairs,
    "infinity.higher_residual": _residual_pairs,
    "infinity.holder_seminorm": _seminorm_pairs,
    "reports.write_csv": _file_counts,
    "reports.write_json": lambda args, result: {"bytes": Path(args[0]).stat().st_size},
}


class Tracer:
    """Keeps spans in memory; `wrap` makes a function record one per call."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, layer: str, fn):
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a fracteig module binds it."""
        import fracteig.cli

        by_id = {}
        for modname, names in TRACED.items():
            layer = modname.rsplit(".", 1)[1]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = sys.modules[modname]
                if owner_name:
                    owner = getattr(owner, owner_name)
                fn = getattr(owner, attr)
                wrapped = self.wrap(f"{layer}.{qualname}", layer, fn)
                setattr(owner, attr, wrapped)
                by_id[id(fn)] = (fn, wrapped)
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n.startswith("fracteig.")]
        namespaces.append(fracteig.cli._COMMANDS)  # main() dispatches through it
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]

    def run(self, argv) -> int:
        import fracteig.cli

        span = self._begin(ROOT, "root")
        try:
            return fracteig.cli.main(argv)
        finally:
            self._end(span)


def main(argv) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run(cli_argv)
    finally:
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")


# ---------------------------------------------------------------------------
# analysis (benchmark process)
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - children[s["id"]] for s in spans]


def layer_table(spans) -> dict:
    """Self seconds per layer, the unattributed gap, and the in-process total."""
    table = dict.fromkeys(LAYERS, 0.0)
    table["unattributed"] = 0.0
    for s, own in zip(spans, self_times(spans)):
        table["unattributed" if s["layer"] == "root" else s["layer"]] += own
    table["total"] = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return table


def layer_metrics(spans) -> dict:
    """Every PER_LAYER metric except trace.wall_s and trace.overhead_s."""
    own = self_times(spans)

    def secs(*names):
        return sum((t for s, t in zip(spans, own) if s["name"] in names), 0.0)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def total(field, *names):
        return sum(s.get(field, 0) for s in spans if s["name"] in names)

    tables = [s for s in spans if s["name"] == _TABLES and "m" in s]  # built, not raised
    quotient_calls = calls("energy.QuotientTables.quotient")
    iters = total("iters", "solver.minimize_first")
    table = layer_table(spans)
    return {
        "geometry.build_s": secs("geometry.build_interval", "geometry.build_disk",
                                 "geometry.build_rectangle"),
        "geometry.distance_s": secs("geometry.distance_to_complement",
                                    "geometry.distance_to_set", "geometry.high_ridge",
                                    "geometry.inscribed_radius"),
        "energy.tables_build_s": secs(_TABLES),
        "energy.table_bytes": max((s["bytes"] for s in tables), default=0),
        "energy.quotient_calls": quotient_calls,
        "energy.quotient_s": secs("energy.QuotientTables.quotient"),
        "energy.gradient_calls": calls("energy.QuotientTables.gradient"),
        "energy.gradient_s": secs("energy.QuotientTables.gradient"),
        "energy.normalize_s": secs("energy.QuotientTables.normalize"),
        "energy.pairs_per_eval": max((s["m"] ** 2 for s in tables), default=0),
        "energy.cross_pairs": max((s["m"] * (s["N"] - s["m"]) for s in tables), default=0),
        "solver.iters": iters,
        "solver.accept_ratio": iters / quotient_calls if quotient_calls else 0.0,
        "solver.self_s": table["solver"],
        "infinity.scan_s": secs("infinity.first_residual", "infinity.higher_residual",
                                "infinity.holder_seminorm"),
        "infinity.scan_pairs": total("pairs", "infinity.first_residual",
                                     "infinity.higher_residual", "infinity.holder_seminorm"),
        "infinity.r2_s": secs("infinity.r2_radius"),
        "infinity.representation_s": secs("infinity.representation"),
        "closedform1d.sample_s": secs("closedform1d.sample"),
        "reports.write_s": table["reports"],
        "reports.rows": total("rows", "reports.write_csv"),
        "reports.bytes": total("bytes", "reports.write_csv", "reports.write_json"),
        "cli.self_s": table["cli"],
        "trace.in_process_s": table["total"],
        "trace.unattributed_s": table["unattributed"],
        "trace.coverage": 1.0 - table["unattributed"] / table["total"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
