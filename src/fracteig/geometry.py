"""Lattice domains with inside masks, and the distance geometry built on them.

A domain is an axis-aligned lattice of spacing ``h`` covering a bounding box
much larger than the open region of interest, plus a boolean mask flagging the
nodes that lie strictly inside the region.  Functions on the lattice are zero
outside the region by convention; the deliberately oversized box is what makes
the nonlocal interaction between the region and its complement visible to
quadrature before the analytic far-field tail takes over.

Conventions used throughout:

* nodes are addressed by their flat C-order index into the lattice array;
* a node "inside" means strictly interior to the region (boundary nodes are
  outside); nodes within ``1e-9 * h`` of a canonical boundary are treated as
  outside so analytic distances stay strictly positive on the inside set;
* distances are Euclidean and in physical units (not multiples of ``h``);
  every distance between two lattice nodes, or a power of it, is read by
  their index offset from one table that only `_offset_distances` builds,
  `_gather` reads and `_tile_envelopes` bounds over lattice tiles, and whose
  layout (`_layout`) no other module reads; analytic distances read
  coordinates at the inside nodes, `nearest_node` the axes, and only a
  predicate every node's, one band of lattice lines at a time;
* a lattice reflection is a permutation of the positions in an ascending
  array of flat node indices that it maps onto itself (`_reflections`), and
  `_orbits` numbers the orbits of a group of them, for every fold.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "Interval",
    "Disk",
    "Rectangle",
    "GridDomain",
    "GridFunction",
    "NodeSet",
    "build_interval",
    "build_mask2d",
    "build_disk",
    "build_rectangle",
    "lattice_symmetries",
    "distance_to_complement",
    "inscribed_radius",
    "high_ridge",
    "distance_to_set",
    "nearest_node",
    "block_rows",
]

# Elements in one block temporary of the pairwise-distance loops (here and in
# energy, infinity): 2**17 doubles, 1 MB.  The size sets the Python overhead
# per block, not cache residency: the pair pass holds a 3 MB (3, B, m) slab,
# over the 2 MB L2 per core of the Xeon measured.  There, row blocks of 2**16
# and 2**15 elements made the twelve verify1d scans take 33-40 ms instead of
# 27-31 ms, and row blocks balanced across the rows raised the peak RSS by
# 0.24 MB on verify1d and 0.95 MB on disk_infinity.  A scan keeps its row
# blocks of this size for the bound, and forms their quotients in sub-blocks
# of a quarter of it (`infinity._SUB_BLOCK_ELEMENTS`), so its dist + quot +
# tied workspaces hold about 0.56 MB while one row of candidates fits in a
# sub-block.
_BLOCK_ELEMENTS = 2**17

# Nodes in one band of lattice lines of a membership test (`_membership`):
# 2**12, so a band's float temporaries take 32 KB at most.  Freed heap blocks
# stay resident: with bands of 2**14 to 2**18 nodes the disk_eig run (a
# 215 x 215 box) peaked 0.06-0.11 MB above the whole-box test, and with 2**12
# level with it.  The disk at h = 1/256, margin 2 (11.6 million nodes, 3,411
# one-line bands) builds in 122-213 ms in a fresh process, against 110-290
# ms for the whole box.
_BAND_ELEMENTS = _BLOCK_ELEMENTS // 32

# Fraction of h used as a guard band: nodes this close to a canonical boundary
# count as outside, so inside nodes always carry a strictly positive distance.
_BOUNDARY_GUARD = 1e-9

# Peak bytes per box node of a lattice build, by how it tests membership.  The
# charges were set when every test spanned the whole box: a canonical shape's
# test on sparse axes then rose the peak RSS by 9.0 bytes a node for a disk at
# 1.8 and 7.1 million nodes, 10.6 and 10.1 for an interval at 1 and 4 million
# (its axis and the mask), and 2.0 for a rectangle at 1.7 and 6.8 million,
# each charged 16; a predicate mask, the unit disk's, rose it by 40.0 at 1.8
# and 7.1 million (the coordinates and the predicate's temporaries), charged
# 48.  Formed a band at a time (`_membership`), the same builds rise by 1.00
# and 0.98 (disk), 8.93 and 8.98 (interval: its axis is 8), 0.93 and 0.98
# (rectangle) and 0.99 and 0.98 (predicate, now tested in the tight box
# alone).  The charges stay: lowering them would change which configs are
# refused.
_LATTICE_BYTES = {"shape": 16, "predicate": 48}


class _TooLarge(ValueError):
    """Arrays that would not fit in physical memory: a ValueError, but not a
    sign of bad input."""


def _check_memory(need: int, what: str) -> None:
    """Raise _TooLarge when `need` bytes, the arrays `what` names, would not
    fit in physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise _TooLarge(f"{what} need {_size(need)}, "
                         f"more than the {_size(have)} of physical memory")


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending, as np.unique gives them (NaNs
    aside, which it merges): a sort and a neighbour-inequality mask.  The
    first np.unique of a process imports numpy.ma, 13-17 ms and 1.7 MB."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _size(n: float) -> str:
    """A byte count to three significant digits, in a binary unit that keeps it under 1000."""
    k = 0
    while n >= 1000 and k < 5:
        n, k = n / 1024, k + 1
    return f"{n:.3g} {('B', 'KiB', 'MiB', 'GiB', 'TiB', 'PiB')[k]}"


# ---------------------------------------------------------------------------
# canonical shapes (exact membership and exact distance to the complement)
#
# Each shape's membership test is written once, as `_inside`, on coordinate
# columns that broadcast against each other: the sparse axes of a lattice
# (`_membership`, for every mask) or the columns of a point array
# (`contains`), which give the same booleans from every node's coordinates.
# ---------------------------------------------------------------------------


class _Shape:
    """Point membership of a canonical shape, from its `_inside`."""

    def contains(self, pts: np.ndarray, guard: float) -> np.ndarray:
        return self._inside(*pts.T, guard=guard)


@dataclass(frozen=True)
class Interval(_Shape):
    """Open interval (a, b) on the line."""

    a: float
    b: float

    @property
    def diameter(self) -> float:
        return self.b - self.a

    def bounding_box(self):
        return np.array([self.a]), np.array([self.b])

    def _inside(self, x, guard):
        return (x > self.a + guard) & (x < self.b - guard)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, 0]
        return np.maximum(np.minimum(x - self.a, self.b - x), 0.0)


@dataclass(frozen=True)
class Disk(_Shape):
    """Open disk of radius r centered at (cx, cy)."""

    cx: float
    cy: float
    r: float

    @property
    def diameter(self) -> float:
        return 2.0 * self.r

    def bounding_box(self):
        c = np.array([self.cx, self.cy])
        return c - self.r, c + self.r

    def _inside(self, x, y, guard):
        return np.hypot(x - self.cx, y - self.cy) < self.r - guard

    def distance(self, pts: np.ndarray) -> np.ndarray:
        d = np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy)
        return np.maximum(self.r - d, 0.0)


@dataclass(frozen=True)
class Rectangle(_Shape):
    """Open axis-aligned rectangle (lox, hix) x (loy, hiy)."""

    lox: float
    loy: float
    hix: float
    hiy: float

    @property
    def diameter(self) -> float:
        return math.hypot(self.hix - self.lox, self.hiy - self.loy)

    def _inside(self, x, y, guard):
        return (
            (x > self.lox + guard)
            & (x < self.hix - guard)
            & (y > self.loy + guard)
            & (y < self.hiy - guard)
        )

    def distance(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        d = np.minimum(
            np.minimum(x - self.lox, self.hix - x),
            np.minimum(y - self.loy, self.hiy - y),
        )
        return np.maximum(d, 0.0)


CanonicalShape = Union[Interval, Disk, Rectangle]


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GridDomain:
    """A lattice box with an inside mask.

    Attributes
    ----------
    h : lattice spacing (same along every axis).
    axes : per-axis node coordinate arrays, one or two; the lattice is their
        product, and ``dim`` is their number.
    inside : boolean array over the lattice, True at strictly interior nodes.
    shape_tag : canonical shape when the mask came from one (enables exact
        distances); None for free-form masks.  It must contain the mask, or
        `inside_distance` reads no true distance (it raises ValueError where
        that distance is not positive).

    Instances are treated as immutable; do not mutate ``inside`` in place.
    The inside nodes' indices, coordinates and distance to the complement
    (`inside_distance`), and the inside nodes with their outside ring
    (`inside_and_ring`), are cached: each is computed once per domain.
    """

    h: float
    axes: tuple
    inside: np.ndarray
    shape_tag: Optional[CanonicalShape] = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError(f"spacing h must be positive and finite, got {self.h}")
        shape = tuple(len(ax) for ax in self.axes)
        if self.inside.shape != shape:
            raise ValueError(f"inside mask shape {self.inside.shape} != lattice {shape}")
        if self.inside.dtype != np.bool_:
            raise ValueError("inside mask must be boolean")
        if not self.inside.any():
            raise ValueError("domain has no inside nodes (h too coarse for the region?)")
        if self.inside.all():
            raise ValueError("domain has no outside nodes; enlarge the box")

    # -- lattice bookkeeping -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def lattice_shape(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.lattice_shape))

    @property
    def box_lo(self) -> np.ndarray:
        return np.array([ax[0] for ax in self.axes])

    @property
    def box_hi(self) -> np.ndarray:
        return np.array([ax[-1] for ax in self.axes])

    def box_distances(self, pts: np.ndarray):
        """Distances from points of the box to the nearest and the farthest
        point of its boundary, as two vectors ``(near, far)``.

        The farthest boundary point is the corner opposite along every axis
        (the far end of the segment in 1D).
        """
        lo, hi = self.box_lo, self.box_hi
        near = np.minimum(pts - lo, hi - pts).min(axis=1)
        far = np.sqrt((np.maximum(pts - lo, hi - pts) ** 2).sum(axis=1))
        return near, far

    @cached_property
    def node_coords(self) -> np.ndarray:
        """(n_nodes, dim) coordinates in flat C order.  Kept for the life of
        the domain; `_coords` gives the rows of a node set alone."""
        return _node_coords(self.axes)

    @cached_property
    def inside_flat(self) -> np.ndarray:
        return self.inside.ravel()

    @cached_property
    def inside_indices(self) -> np.ndarray:
        return np.flatnonzero(self.inside_flat)

    @cached_property
    def inside_coords(self) -> np.ndarray:
        return _coords(self, self.inside_indices)

    @cached_property
    def inside_distance(self) -> np.ndarray:
        """Distance to the complement at the inside nodes, in their order:
        computed once per domain and kept read-only.  Canonical shapes get
        the exact analytic distance; free-form masks get the distance to the
        nearest outside node, read by index offset (`_offset_distances`),
        which approximates the continuum distance to O(h).  That node always
        lies on the outside ring, the outside axis neighbours of inside
        nodes: one lattice step from it toward the inside node lands inside,
        or a nearer outside node would exist.  So only the ring is scanned,
        read from `inside_and_ring`, the scan's candidates, so one dilation
        serves both.  Raises ValueError where the distance is not positive,
        which only a shape_tag that does not contain the mask gives."""
        if self.shape_tag is not None:
            d = self.shape_tag.distance(self.inside_coords)
        else:
            near = self.inside_and_ring
            d = _nearest_distances(self, self.inside_indices, near[~self.inside_flat[near]])
        if not (d > 0.0).all():
            raise ValueError("distance to the complement must be positive at inside nodes; "
                             f"does the shape_tag {self.shape_tag} contain the mask?")
        d.flags.writeable = False
        return d

    @cached_property
    def inside_and_ring(self) -> np.ndarray:
        """Ascending flat indices of the inside nodes and the outside ring,
        the outside axis neighbours of inside nodes: computed once per domain
        and kept read-only."""
        near = np.flatnonzero(_dilate(self.inside))
        near.flags.writeable = False
        return near

    @property
    def inside_count(self) -> int:
        return int(self.inside_indices.size)

    def same_lattice(self, other: "GridDomain") -> bool:
        """True when two domains share dim, spacing and node coordinates."""
        return other is self or (
            self.dim == other.dim
            and self.h == other.h
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        )

    def restricted(self, predicate: Callable[[np.ndarray], np.ndarray],
                   shape_tag: Optional[CanonicalShape] = None) -> "GridDomain":
        """Sub-domain on the same lattice: the inside nodes that satisfy
        predicate, or else those of the canonical shape_tag.

        The predicate receives an (N, dim) coordinate array and returns a
        boolean vector, so it passes `_check_memory` first; a shape_tag is
        tested on the axes instead.  Passing both raises ValueError, as does
        a shape_tag with a lattice node outside this domain's inside set:
        such a tag does not describe the sub-domain's mask, so its analytic
        distance would be wrong.  Useful for monotonicity experiments where
        the smaller region must live on the identical lattice and box.
        """
        if shape_tag is None:
            _check_memory(_LATTICE_BYTES["predicate"] * self.n_nodes,
                          f"lattice arrays for {self.n_nodes} nodes")
        elif predicate is not None:
            raise ValueError("pass a predicate or a shape_tag, not both")
        mask = _membership(self.axes, self.h, shape_tag, predicate)
        count = np.count_nonzero(mask)
        mask &= self.inside
        if shape_tag is not None and np.count_nonzero(mask) < count:
            raise ValueError(f"shape_tag {shape_tag} has lattice nodes outside the domain")
        return replace(self, inside=mask, shape_tag=shape_tag)


class GridFunction:
    """Real values on every lattice node of a domain.

    ``zero_extended`` marks functions that vanish identically outside the
    region (the default for anything fed to the nonlocal energy); comparison
    functions such as cones carry meaningful values everywhere and set it to
    False.

    A function built from its inside values (`from_inside`) keeps those
    alone and forms its array over the box (`values`, `flat`) on first use.
    Until then `at` and `inside_values` read the inside values, with +0.0 at
    every other node, bit for bit what that array holds, and `max_value` and
    `max_abs` reduce them.  So a function that is only scanned, reported or
    written costs no 8 bytes per box node.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray, zero_extended: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.lattice_shape:
            raise ValueError(f"values shape {values.shape} != lattice {domain.lattice_shape}")
        if not np.isfinite(values).all():
            raise ValueError("grid function contains non-finite values")
        self.domain = domain
        self.zero_extended = zero_extended
        self._values, self._inside = values, None
        # the nonzeros outside are those over the box less those at the inside
        # nodes: two counts, no copy of the outside values
        if zero_extended and (np.count_nonzero(values)
                              > np.count_nonzero(self.inside_values())):
            raise ValueError("zero-extended grid function is nonzero outside the region")

    @classmethod
    def from_inside(cls, domain: GridDomain, inside_values: np.ndarray) -> "GridFunction":
        """Build a zero-extended function from values on the inside nodes,
        kept as a copy of them alone."""
        inside_values = np.array(inside_values, dtype=float)
        if inside_values.shape != (domain.inside_count,):
            raise ValueError(
                f"expected {domain.inside_count} inside values, got {inside_values.shape}"
            )
        if not np.isfinite(inside_values).all():
            raise ValueError("grid function contains non-finite values")
        u = cls.__new__(cls)
        u.domain, u.zero_extended = domain, True
        u._values, u._inside = None, inside_values
        return u

    @property
    def values(self) -> np.ndarray:
        """The values over the box, in the lattice's shape."""
        if self._values is None:
            full = np.zeros(self.domain.n_nodes)
            full[self.domain.inside_indices] = self._inside
            self._values, self._inside = full.reshape(self.domain.lattice_shape), None
        return self._values

    def at(self, nodes: np.ndarray) -> np.ndarray:
        """The values at the flat node indices `nodes`, an integer array."""
        if self._values is not None:
            return self._values.ravel()[nodes]
        dom = self.domain
        out = np.zeros(nodes.shape)
        inside = dom.inside_flat[nodes]
        out[inside] = self._inside[np.searchsorted(dom.inside_indices, nodes[inside])]
        return out

    def inside_values(self) -> np.ndarray:
        if self._values is None:
            return self._inside.copy()
        return self._values.ravel()[self.domain.inside_indices]

    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def max_value(self) -> float:
        """The largest value on the lattice."""
        if self._values is None:  # every outside node holds 0.0
            return max(float(self._inside.max()), 0.0)
        return float(self._values.max())

    def max_abs(self) -> float:
        if self._values is None:
            return float(np.abs(self._inside).max())
        return float(np.abs(self._values).max())


@dataclass(eq=False)
class NodeSet:
    """A finite set of lattice nodes, stored as sorted unique flat indices."""

    domain: GridDomain
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size == 0:
            raise ValueError("node set is empty")
        # as `_check_integer`: a float is not truncated, nor a bool mask read as indices
        if idx.dtype.kind not in "iu":
            raise ValueError(f"node indices must be integers, got dtype {idx.dtype}")
        idx = _unique(idx.astype(np.int64, copy=False))
        if idx[0] < 0 or idx[-1] >= self.domain.n_nodes:
            raise ValueError("node index out of lattice range")
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)

    def coords(self) -> np.ndarray:
        return _coords(self.domain, self.indices)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _axis(anchor: float, k0: int, k1: int, h: float) -> np.ndarray:
    """Lattice axis of spacing h through `anchor`: the nodes k0 .. k1 steps from it,
    scaled and shifted in place (``anchor + h * arange(k0, k1 + 1)``, bit for bit)."""
    axis = np.arange(k0, k1 + 1, dtype=float)
    axis *= h
    axis += anchor
    return axis


def _node_coords(axes) -> np.ndarray:
    """(N, dim) coordinates of the product lattice of `axes`, in flat C order."""
    coords = np.empty((*map(len, axes), len(axes)))
    for k, grid in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True, copy=False)):
        coords[..., k] = grid
    return coords.reshape(-1, len(axes))


def _coords(dom: GridDomain, nodes: np.ndarray) -> np.ndarray:
    """(len(nodes), dim) coordinates of the nodes (flat indices): each axis
    value gathered by the node's index along that axis, so the rows of
    ``dom.node_coords[nodes]``, bit for bit, without that array."""
    at = np.unravel_index(nodes, dom.lattice_shape)
    return np.stack([ax[i] for ax, i in zip(dom.axes, at)], axis=1)


def _membership(axes, h: float, shape: Optional[CanonicalShape],
                predicate: Optional[Callable[[np.ndarray], np.ndarray]],
                within: Optional[tuple] = None) -> np.ndarray:
    """Membership mask of the product lattice of `axes`: a canonical shape's
    `_inside` on the sparse axes, with the boundary guard of spacing h, or
    else a predicate on the nodes' coordinates, and'ed, where within is a
    pair (lo, hi) of corners (`_lattice` passes it with a predicate only),
    with the open box between them.

    That box, guarded as a `Rectangle` is, holds one range of nodes per
    axis, so the predicate is tested on that window alone and the rest of
    the mask is False.  The mask is written into one bool array, a band of
    lattice lines along axis 0 at a time, each band at most `_BAND_ELEMENTS`
    nodes (one line at least), so the float temporaries of a test never
    span the box.  A predicate is called once per band, on that band's
    (nodes, dim) coordinates, so it must be pointwise: a node's flag may
    depend on its own coordinates alone.  Every test here is elementwise,
    so the bands give the flags a test of the whole box would, bit for bit."""
    if shape is None and predicate is None:
        raise ValueError("need a predicate or a canonical shape")
    guard = _BOUNDARY_GUARD * h
    out = np.empty(tuple(map(len, axes)), dtype=bool)
    window = out
    if within is not None:
        out.fill(False)
        spans = [np.flatnonzero((ax > a + guard) & (ax < b - guard))
                 for ax, a, b in zip(axes, *within)]
        if any(s.size == 0 for s in spans):
            return out
        window = out[tuple(slice(s[0], s[-1] + 1) for s in spans)]
        axes = [ax[s[0]:s[-1] + 1] for ax, s in zip(axes, spans)]
    lines, *rest = axes
    band = max(1, _BAND_ELEMENTS // math.prod(map(len, rest)))
    for k0 in range(0, lines.size, band):
        sub = (lines[k0:k0 + band], *rest)
        if shape is not None:
            window[k0:k0 + band] = shape._inside(
                *np.meshgrid(*sub, indexing="ij", sparse=True, copy=False), guard=guard)
        else:
            window[k0:k0 + band] = np.asarray(predicate(_node_coords(sub)),
                                              dtype=bool).reshape(tuple(map(len, sub)))
    return out


def _lattice(lo: np.ndarray, hi: np.ndarray, h: float, margin: float, anchor: np.ndarray,
             inside_of: Optional[Callable[[np.ndarray], np.ndarray]],
             shape: Optional[CanonicalShape]) -> GridDomain:
    """Lattice of spacing h through `anchor` over the box [lo, hi] widened by
    margin times its diagonal, whose inside nodes are those of `shape` or else
    those of the open box where `inside_of` holds.  Raises ValueError, before
    any array of the lattice's size exists, when the widened box or its node
    count is not finite or the build would not fit in physical memory."""
    if not (h > 0.0):
        raise ValueError(f"spacing h must be positive, got {h}")
    if margin < 1.0:
        raise ValueError(f"margin must be >= 1, got {margin}")
    ext = margin * np.hypot.reduce(hi - lo)
    with np.errstate(over="ignore", invalid="ignore"):
        # steps from the anchor to either end; an end within 1e-12 steps past a node stops there
        below = np.ceil((anchor - (lo - ext)) / h - 1e-12)
        above = np.ceil((hi + ext - anchor) / h - 1e-12)
        nodes = np.prod(below + above + 1.0)  # nan or inf when any end is
    if not np.isfinite(nodes):
        raise ValueError(f"the lattice at h = {h} on the box {lo.tolist()} .. {hi.tolist()} "
                         f"widened by margin {margin} is not finite")
    per_node = _LATTICE_BYTES["predicate" if shape is None else "shape"]
    _check_memory(per_node * int(nodes), f"lattice arrays for {int(nodes)} nodes")
    axes = tuple(_axis(c, -int(down), int(up), h) for c, down, up in zip(anchor, below, above))
    # a predicate counts only inside the tight box
    inside = _membership(axes, h, shape, inside_of, within=(lo, hi) if shape is None else None)
    return GridDomain(h=float(h), axes=axes, inside=inside, shape_tag=shape)


def build_interval(a: float, b: float, h: float, margin: float = 2.0) -> GridDomain:
    """1D lattice for the open interval (a, b).

    The lattice is anchored at ``a`` (so endpoints are nodes whenever h divides
    b - a) and covers [a - margin*(b-a), b + margin*(b-a)].  Nodes strictly
    between a and b are inside.
    """
    if not (b > a):
        raise ValueError(f"degenerate interval: a={a}, b={b}")
    shape = Interval(float(a), float(b))
    lo, hi = shape.bounding_box()
    return _lattice(lo, hi, h, margin, lo, None, shape)


def _point(name: str, value, dim: int) -> np.ndarray:
    """value as a float vector of exactly dim finite entries; a ValueError
    that names it otherwise."""
    p = np.atleast_1d(np.asarray(value, dtype=float))
    if p.shape != (dim,):
        raise ValueError(f"{name} must have {dim} coordinates")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} must be finite, got {p.tolist()}")
    return p


def _box2d(lo, hi) -> tuple:
    """The corners lo and hi of a 2D box, each read by `_point`, hi above lo
    along both axes."""
    lo, hi = _point("lo", lo, 2), _point("hi", hi, 2)
    if not np.all(hi > lo):
        raise ValueError(f"degenerate 2D box: lo={lo}, hi={hi}")
    return lo, hi


def build_mask2d(box, h: float, inside_predicate: Callable[[np.ndarray], np.ndarray],
                 margin: float = 2.0, anchor=None) -> GridDomain:
    """2D lattice domain from a membership predicate.

    ``box`` is the (lo, hi) pair of corners tightly bounding the region; the
    lattice runs through ``anchor`` (default lo) and extends ``margin`` times
    the box's diagonal beyond it on every side.  lo, hi and anchor each take
    exactly two finite coordinates.  The predicate receives (N, 2)
    coordinates and returns booleans; it is only honored inside the tight
    box.  The domain carries no shape, so its distances are the lattice's.
    """
    lo, hi = _box2d(*box)
    anchor = lo if anchor is None else _point("anchor", anchor, 2)
    return _lattice(lo, hi, h, margin, anchor, inside_predicate, None)


def build_disk(center, radius: float, h: float, margin: float = 2.0) -> GridDomain:
    """Canonical disk domain; the center, two finite coordinates, is a
    lattice node by construction."""
    c = _point("center", center, 2)
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    shape = Disk(*c.tolist(), float(radius))
    return _lattice(*shape.bounding_box(), h, margin, c, None, shape)


def build_rectangle(lo, hi, h: float, margin: float = 2.0) -> GridDomain:
    """Canonical axis-aligned rectangle domain anchored at its lower corner;
    lo and hi take two finite coordinates each, hi above lo along both axes."""
    lo, hi = _box2d(lo, hi)
    return _lattice(lo, hi, h, margin, lo, None, Rectangle(*lo.tolist(), *hi.tolist()))


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------


def _reflections(dom: GridDomain, nodes: np.ndarray) -> list:
    """The group of lattice reflections that map the mask onto itself, as
    permutations of the positions in `nodes`, an ascending array of flat
    node indices that every such reflection maps onto itself: entry i of an
    element is the position in `nodes` of the image of ``nodes[i]``.

    The candidates are the flip of each axis (node k of an axis with n nodes
    goes to node n - 1 - k) and, on a square lattice, the swap of the two
    axes: the reflections about the box centre and its diagonal, which map
    the lattice and the box onto themselves and permute index offsets, so
    keep every `_offset_distances` value bitwise.  A candidate counts when
    it maps the mask onto itself.  The result is the group the counted
    candidates generate, identity first, then the products in breadth-first
    order.  Reflections that agree on every node of `nodes` are one element.

    A reflection is a bijection of the box, so it maps the mask onto itself
    when it maps every inside node to an inside node: the test reads the
    mask at the inside nodes' images alone.  The group has at most 8
    elements, so a new product is compared with each element kept so far.
    """
    shape = dom.lattice_shape
    inside = dom.inside_indices
    at = np.unravel_index(nodes, shape)
    at_inside = at if nodes is inside else np.unravel_index(inside, shape)
    # each candidate, as the lattice indices of the images of nodes at indices a
    moves = [lambda a, ax=ax: a[:ax] + (shape[ax] - 1 - a[ax],) + a[ax + 1:]
             for ax in range(dom.dim)]
    if dom.dim == 2 and shape[0] == shape[1]:
        moves.append(lambda a: a[::-1])
    gens = [np.searchsorted(nodes, np.ravel_multi_index(move(at), shape)) for move in moves
            if dom.inside_flat[np.ravel_multi_index(move(at_inside), shape)].all()]
    group = [np.arange(nodes.size)]
    for g in group:  # the loop also visits the elements it appends
        for s in gens:
            composed = g[s]  # (g s)(x) = g(s(x))
            if not any(np.array_equal(composed, k) for k in group):
                group.append(composed)
    return group


def _orbits(group: list) -> tuple:
    """Orbits of a group of permutations of positions 0 .. m - 1 (identity
    first), each numbered by its smallest position: ``(reps, labels, elem)``
    with reps the ascending smallest positions, labels[i] the orbit of
    position i, and group[elem[i]] the first element mapping reps[labels[i]]
    to i, so the identity at the reps.  Sorts nothing."""
    first = group[0].copy()  # the smallest position of each position's orbit
    for g in group[1:]:
        np.minimum(first, g, out=first)
    reps = np.flatnonzero(first == np.arange(first.size))
    labels = np.searchsorted(reps, first)
    elem = np.zeros(first.size, dtype=np.int64)
    for k in range(len(group) - 1, -1, -1):  # the earlier element written last
        elem[group[k][reps]] = k
    return reps, labels, elem


def lattice_symmetries(dom: GridDomain) -> list:
    """The lattice reflections that map the mask onto itself (`_reflections`),
    as permutations of the inside nodes: entry i of an element is the
    position in ``inside_indices`` of the image of inside node i.  The group
    is listed identity first, each element once.
    """
    return _reflections(dom, dom.inside_indices)


# ---------------------------------------------------------------------------
# distance geometry
# ---------------------------------------------------------------------------


def block_rows(ncols: int) -> int:
    """Rows per block of a pairwise-distance loop with ncols columns."""
    return max(1, _BLOCK_ELEMENTS // ncols)


def _dilate(mask: np.ndarray) -> np.ndarray:
    """The mask together with the axis neighbours of its nodes: a binary
    dilation with the cross structure, nothing beyond the lattice edge."""
    out = mask.copy()
    for ax in range(mask.ndim):
        src, dst = np.moveaxis(mask, ax, 0), np.moveaxis(out, ax, 0)
        dst[1:] |= src[:-1]
        dst[:-1] |= src[1:]
    return out


def _layout(dom: GridDomain, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """The layout of an `_offset_distances` table of rows against cols (flat
    indices): ``(at, ext)``, at[k] the nodes' indices along axis k from the
    low corner of their bounding box, rows first, and ext[k] that box's
    extent along axis k."""
    at = [a - a.min() for a in np.unravel_index(np.concatenate([rows, cols]), dom.lattice_shape)]
    return at, [int(a.max()) for a in at]


def _offset_distances(dom: GridDomain, rows: np.ndarray, cols: np.ndarray,
                      power: float = 1.0, zero: float = 0.0) -> tuple:
    """Distances between lattice nodes by their integer index offset a,
    raised to `power`: ``(table, row_keys, col_keys)`` with
    table[row_keys[i] - col_keys[j]] = (h * sqrt(sum_k a_k**2))**power, a the
    offset of node rows[i] from node cols[j] (flat indices, any order), and
    `zero` at a = 0.  The table spans a_k = -ext[k] .. ext[k], the extents of
    the nodes' bounding box (`_layout`; under 2**dim entries per box node),
    in C order.  Only geometry reads that layout: callers read blocks through
    `_gather`, and a per-tile bound through `_tile_envelopes`.  Reflections
    permute offsets, so keep every distance bitwise; for h a power of two and
    nodes at multiples of h these are the coordinate distances."""
    at, ext = _layout(dom, rows, cols)
    offsets = np.ix_(*[np.arange(-e, e + 1, dtype=float) for e in ext])
    table = sum(a * a for a in offsets).ravel()  # a new array, so sqrt and scale in place
    table = np.multiply(np.sqrt(table, out=table), dom.h, out=table)
    middle = table.size // 2  # the zero offset, set apart so 0 meets no negative power
    table[middle] = 1.0
    table **= power  # ** rather than np.power: a power of 0.5 takes numpy's sqrt path
    table[middle] = zero
    keys = np.ravel_multi_index(at, [2 * e + 1 for e in ext])
    return table, keys[:len(rows)] + middle, keys[len(rows):]


def _gather(table: np.ndarray, row_keys: np.ndarray, col_keys: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """The block table[row_keys[i] - col_keys[j]] of an `_offset_distances`
    table, written into the leading entries of the contiguous workspace out:
    the keys first (in range by construction, so clip skips the bounds
    check), then the values, as take reads key j before it writes entry j."""
    shape = (row_keys.size, col_keys.size)
    block = out.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
    keys = np.subtract.outer(row_keys, col_keys, out=block.view(np.int64))
    return table.take(keys, out=block, mode="clip")


def _tile_envelopes(dom: GridDomain, table: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    vals: np.ndarray, side: int) -> tuple:
    """The lattice part of a per-tile bound over the `_offset_distances`
    table of rows against cols (flat indices, as the table was built), with
    vals the values at the columns: ``(patch, ends, envelopes, row_keys,
    patch_keys)``.

    The columns fall into tiles of `side` nodes per axis, counted from the
    low corner of the table's layout (`_layout`).  The occupied tiles, the
    patches, are numbered in flat order: patch[j] is column j's, and ends
    the (2, patches) stack of the largest and the smallest of vals over each
    patch's columns.  envelopes[:, row_keys[i] - patch_keys[P]] are the near
    and the far envelope of row i against patch P: no entry of the table
    between the row and a node of the tile lies below the first or above
    the second.  Both are read from the table's quarter a >= 0, which a
    reflection of offsets keeps bitwise ((-a)**2 == a**2), and no entry is
    computed afresh: the near one is the smallest entry over offsets with
    |a_k| >= n_k on every axis (a NaN passed over, so a NaN zero offset is
    left out), the far one the largest over offsets with 0 < |a|,
    |a_k| <= f_k, where n_k and f_k are the least and greatest |a_k| from
    the row to the tile, f_k at most the table's extent.  For a table that
    grows with every |a_k|, as a distance raised to a positive power does,
    they are the least and the greatest entry over the tile's offsets in
    the table, the zero offset left out."""
    at, ext = _layout(dom, rows, cols)
    half = side // 2
    quarter = table.reshape([2 * e + 1 for e in ext])[tuple(slice(e, None) for e in ext)]
    low = quarter.copy()
    high = quarter.copy()
    high.flat[0] = 0.0  # the zero offset, left out of the maxima
    for ax in range(dom.dim):
        back = tuple(slice(None, None, -1) if k == ax else slice(None) for k in range(dom.dim))
        low[back] = np.fmin.accumulate(low[back], axis=ax)
        np.maximum.accumulate(high, axis=ax, out=high)

    # the tile of each column, the extremes of vals over each tile's columns,
    # and the patches: the occupied tiles, numbered in flat order
    tiles = [e // side + 1 for e in ext]
    tile_of = np.ravel_multi_index([a[len(rows):] // side for a in at], tiles)
    top = np.full(math.prod(tiles), -np.inf)
    np.maximum.at(top, tile_of, vals)
    bottom = np.full(top.size, np.inf)
    np.minimum.at(bottom, tile_of, vals)
    occupied = np.flatnonzero(top > -np.inf)
    number = np.empty(top.size, dtype=np.int64)
    number[occupied] = np.arange(occupied.size)

    # Along an axis, the nodes of a tile [c_k - side/2, c_k + side/2) lie
    # max(g + 1 - side/2, 0) to g + side/2 steps from a row x_k, where
    # g = max(d, -1 - d) and d = x_k - c_k.  So both envelopes are tabulated
    # by d, and one subtraction of keys gives every (row, patch) index.
    centre = [t * side + half for t in np.unravel_index(occupied, tiles)]
    row_at = [a[:len(rows)] for a in at]
    span = [np.arange(int(r.min()) - int(c.max()), int(r.max()) - int(c.min()) + 1)
            for r, c in zip(row_at, centre)]
    gap = [np.maximum(d, -1 - d) for d in span]
    near = low[np.ix_(*[np.maximum(n + 1 - half, 0) for n in gap])].ravel()
    far = high[np.ix_(*[np.minimum(n + half, e) for n, e in zip(gap, ext)])].ravel()
    stride = [math.prod(d.size for d in span[k + 1:]) for k in range(dom.dim)]
    row_keys = sum((r - d[0]) * st for r, d, st in zip(row_at, span, stride))
    patch_keys = sum(c * st for c, st in zip(centre, stride))
    return (number[tile_of], np.stack([top[occupied], bottom[occupied]]),
            np.stack([near, far]), row_keys, patch_keys)


def _nearest_distances(dom: GridDomain, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Distance from each node of rows to the nearest node of cols (flat
    indices), a minimum over the `_offset_distances` table in row blocks."""
    table, row_keys, col_keys = _offset_distances(dom, rows, cols)
    d = np.empty(len(rows))
    step = block_rows(len(cols))
    work = np.empty(min(step, len(rows)) * len(cols))
    for k0 in range(0, len(rows), step):
        _gather(table, row_keys[k0:k0 + step], col_keys, work).min(axis=1, out=d[k0:k0 + step])
    return d


def distance_to_complement(dom: GridDomain) -> GridFunction:
    """Distance from each node to the complement of the region (zero outside),
    as a fresh function held at the inside nodes (`GridFunction.from_inside`).
    Its inside values are the domain's `GridDomain.inside_distance`, computed
    once per domain."""
    return GridFunction.from_inside(dom, dom.inside_distance)


def inscribed_radius(delta: GridFunction) -> float:
    """Largest distance-to-complement value on the lattice."""
    return delta.max_value()


def high_ridge(delta: GridFunction, tol: Optional[float] = None) -> NodeSet:
    """Nodes where the distance to the complement is within tol of its maximum.

    Default tolerance is h/2, which captures exactly the nodes sitting on the
    continuum ridge whenever that ridge passes through lattice nodes.  The
    maximum is taken over the lattice (`inscribed_radius`), the nodes among
    the inside ones.
    """
    dom = delta.domain
    if tol is None:
        tol = dom.h / 2.0
    if tol < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    r = inscribed_radius(delta)
    return NodeSet(dom, dom.inside_indices[delta.inside_values() >= r - tol])


def distance_to_set(dom: GridDomain, nodes: NodeSet) -> GridFunction:
    """Euclidean distance from every lattice node to the nearest node of the set.

    Read by index offset (`_offset_distances`), it is exact (the set is
    finite), vanishes exactly on the set, and is 1-Lipschitz.  It is not
    zero-extended: the distance is meaningful on the whole lattice.  Its table
    spans the whole box, so it passes `_check_memory` first.
    """
    if not dom.same_lattice(nodes.domain):
        raise ValueError("node set lives on a different lattice")
    # measured peak: 8 bytes x (table + 5.0-5.4 per box node) on disks of 0.18
    # and 0.73 million nodes, 6.0 on an interval; keys also grow with the set
    table = math.prod(2 * n - 1 for n in dom.lattice_shape)
    _check_memory(8 * (table + 7 * (dom.n_nodes + len(nodes))),
                  f"distance_to_set arrays for {dom.n_nodes} box nodes")
    d = _nearest_distances(dom, np.arange(dom.n_nodes), nodes.indices)
    return GridFunction(dom, d.reshape(dom.lattice_shape), zero_extended=False)


def _check_alpha(alpha: float) -> None:
    """Raise unless the Hoelder exponent alpha lies in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _check_integer(name: str, value) -> None:
    """Raise unless value is a Python or numpy integer: a float is not
    truncated, and a bool, an int to Python, is no count, seed or index."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _node_index(dom: GridDomain, x) -> int:
    """x as a flat node index of dom; numpy would silently wrap a negative one."""
    _check_integer("node index", x)
    x = int(x)
    if not (0 <= x < dom.n_nodes):
        raise ValueError(f"node index {x} out of range")
    return x


def nearest_node(dom: GridDomain, point) -> int:
    """Flat index of the lattice node closest to a point: the nearest along
    each axis (the lower on a tie), as the squared distance sums over axes."""
    p = _point("point", point, dom.dim)
    at = [np.argmin((ax - c) ** 2) for ax, c in zip(dom.axes, p)]
    return int(np.ravel_multi_index(at, dom.lattice_shape))
