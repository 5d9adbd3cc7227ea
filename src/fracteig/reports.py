"""Deterministic CSV/JSON writers shared by the command-line entry points.

Floats are written with 17 significant digits (round-trip exact for doubles);
JSON objects are emitted with sorted keys so identical inputs produce
byte-identical artifacts.  ``write_csv`` formats rows of values;
``write_mask`` writes the lattice mask, whose coordinates repeat along every
axis, from each axis value formatted once, in the bytes ``write_csv`` gives.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import GridDomain, GridFunction

# CPython's built-in SHA-256: importing hashlib would map OpenSSL's libcrypto
# (about 3.5 MB resident) into every process for this one digest.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "fmt17",
    "write_csv",
    "write_json",
    "canonical_json",
    "config_digest",
    "coord_header",
    "write_mask",
    "function_rows",
    "infinity_header",
]

# Rows turned into Python values (`_stream_rows`) and formatted per write
# (`write_csv`) at a time.  On the disk infinity report at h = 1/32 (3,205
# rows of 13 columns) the run's peak RSS fell from 35.1 MB at 4,096 rows to
# 33.2 MB at 128 and stayed there down to 16; the write time was flat from 64
# to 1,024 rows.
_CHUNK_ROWS = 128


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
    return _sha256(packed.encode("utf-8")).hexdigest()


def coord_header(dom: GridDomain) -> list:
    """Column names of a node's coordinates."""
    return ["x"] if dom.dim == 1 else ["x", "y"]


def write_mask(path: Path, dom: GridDomain) -> None:
    """Write the lattice mask: a row (coordinates..., inside flag) per node,
    in flat C order.

    The bytes are those of ``write_csv`` on the rows of ``dom.node_coords``
    and ``dom.inside_flat``.  A node's coordinates are its axis values, so
    each axis value is formatted once: a line is the prefix of its
    leading-axis value, followed by one of the two line ends (value, flag)
    formed for each value of the last axis.  The ends are picked one lattice
    line at a time, by its flags read as 0 and 1, so no array or list of the
    whole box is made.  Every line of a 2-D box reads all the ends, formed
    once; the single line of a 1-D box is formed and written `_CHUNK_ROWS`
    ends at a time, so neither holds more than a line's ends or a chunk.
    """
    *lead, last = dom.axes
    prefixes = ["%.17g," % v for v in lead[0].tolist()] if lead else [""]
    flags = dom.inside.reshape(len(prefixes), last.size).view(np.uint8)
    span = last.size if lead else _CHUNK_ROWS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*coord_header(dom), "inside"]) + "\n")
        for c0 in range(0, last.size, span):
            values = ["%.17g" % v for v in last[c0:c0 + span].tolist()]
            ends = np.array([[v + ",0\n" for v in values], [v + ",1\n" for v in values]],
                            dtype=object)
            column = np.arange(len(values))
            for prefix, line in zip(prefixes, flags[:, c0:c0 + span]):
                fh.write(prefix + prefix.join(ends[line, column].tolist()))


def _stream_rows(*columns: np.ndarray):
    """The rows of equal-length 1-D arrays as tuples of Python values,
    converted `_CHUNK_ROWS` rows at a time, so no column is ever a whole
    Python list."""
    for k0 in range(0, len(columns[0]), _CHUNK_ROWS):
        yield from zip(*(c[k0:k0 + _CHUNK_ROWS].tolist() for c in columns))


def function_rows(u: GridFunction):
    """Rows (coordinates..., value) at the inside nodes."""
    return _stream_rows(*u.domain.inside_coords.T, u.inside_values())


def infinity_header(dom: GridDomain) -> list:
    return (["node", *coord_header(dom), "u", "delta", "l_plus", "witness_plus",
             "l_minus", "witness_minus", "l_minus_analytic", "branch", "residual"])
