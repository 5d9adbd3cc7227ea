"""Deterministic CSV/JSON writers shared by the command-line entry points.

Floats are written with 17 significant digits (round-trip exact for doubles);
JSON objects are emitted with sorted keys so identical inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import GridDomain, GridFunction

__all__ = [
    "fmt17",
    "write_csv",
    "write_json",
    "canonical_json",
    "config_digest",
    "mask_rows",
    "function_rows",
    "infinity_header",
]

# Rows formatted per write in write_csv.
_CHUNK_ROWS = 4096


def fmt17(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _row_format(row: Sequence) -> str:
    """One %-format for a row: fmt17's output for each value's type."""
    def spec(v):
        if isinstance(v, str):
            return "%s"
        if isinstance(v, (bool, np.bool_, int, np.integer)):
            return "%d"
        return "%.17g"
    return ",".join(spec(v) for v in row)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV whose cells read as ``fmt17`` would write them.

    Every column keeps the type it has in the first row, so one format string
    built from that row serves them all.  Rows are formatted and written
    `_CHUNK_ROWS` at a time, so the text of the whole file is never held in
    memory at once.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        fmt = _row_format(first) + "\n"
        fh.write(fmt % tuple(first))
        while chunk := [fmt % tuple(row) for row in itertools.islice(rows, _CHUNK_ROWS)]:
            fh.write("".join(chunk))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


def write_json(path: Path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def config_digest(obj) -> str:
    packed = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(packed.encode("utf-8")).hexdigest()


def mask_rows(dom: GridDomain):
    """Full-lattice rows (coordinates..., inside flag)."""
    return zip(*dom.node_coords.T.tolist(), dom.inside_flat.tolist())


def function_rows(u: GridFunction):
    """Rows (coordinates..., value) at the inside nodes."""
    idx = u.domain.inside_indices
    return zip(*u.domain.node_coords[idx].T.tolist(), u.flat()[idx].tolist())


def infinity_header(dom: GridDomain) -> list:
    coord_cols = ["x"] if dom.dim == 1 else ["x", "y"]
    return (["node", *coord_cols, "u", "delta", "l_plus", "witness_plus",
             "l_minus", "witness_minus", "l_minus_analytic", "branch", "residual"])
