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
  their index offset from one table that only `_offset_distances` builds and
  `_gather` reads; analytic distances read coordinates at the inside nodes,
  `nearest_node` the axes, and only a predicate every node's;
* a lattice reflection is a permutation of the positions in an ascending
  array of flat node indices that it maps onto itself (`_reflections`), and
  `_orbits` numbers the orbits of a group of them, for every fold.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
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
# energy, infinity): 2**17 doubles, 1 MB, so a block and the few arrays made
# from it stay in a core's L2 cache.
_BLOCK_ELEMENTS = 2**17

# Fraction of h used as a guard band: nodes this close to a canonical boundary
# count as outside, so inside nodes always carry a strictly positive distance.
_BOUNDARY_GUARD = 1e-9

# Peak bytes per box node of a lattice build, by how it tests membership.  The
# measured peak RSS rise of a canonical shape's test on sparse axes was 9.0
# for a disk at 1.8 and 7.1 million nodes, 10.6 and 10.1 for an interval at 1
# and 4 million (its axis and the mask), and 2.0 for a rectangle at 1.7 and 6.8
# million, each charged 16; that of a predicate mask, the unit disk's, was 40.0
# at 1.8 and 7.1 million (the coordinates and the predicate's temporaries),
# charged 48 for predicates that make more temporaries than that one.
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
    def dim(self) -> int:
        return 1

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
    def dim(self) -> int:
        return 2

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
    def dim(self) -> int:
        return 2

    @property
    def diameter(self) -> float:
        return math.hypot(self.hix - self.lox, self.hiy - self.loy)

    def bounding_box(self):
        return np.array([self.lox, self.loy]), np.array([self.hix, self.hiy])

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
    dim : 1 or 2.
    h : lattice spacing (same along every axis).
    axes : per-axis node coordinate arrays; the lattice is their product.
    inside : boolean array over the lattice, True at strictly interior nodes.
    shape_tag : canonical shape when the mask came from one (enables exact
        distances); None for free-form masks.
    margin : the box extends at least ``margin`` times the diagonal of the
        region's bounding box beyond that bounding box on every side.

    Instances are treated as immutable; do not mutate ``inside`` in place.
    The inside nodes' indices, coordinates and distance to the complement
    (`inside_distance`) are cached: each is computed once per domain.
    """

    dim: int
    h: float
    axes: tuple
    inside: np.ndarray
    shape_tag: Optional[CanonicalShape] = None
    margin: float = 2.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ValueError(f"spacing h must be positive and finite, got {self.h}")
        if len(self.axes) != self.dim:
            raise ValueError("axes/dim mismatch")
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
        or a nearer outside node would exist.  So only the ring is scanned."""
        if self.shape_tag is not None:
            d = self.shape_tag.distance(self.inside_coords)
        else:
            ring = np.flatnonzero(_dilate(self.inside) & ~self.inside)
            d = _nearest_distances(self, self.inside_indices, ring)
        d.flags.writeable = False
        return d

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
        """Sub-domain on the same lattice: inside nodes that satisfy predicate.

        The predicate receives an (N, dim) coordinate array and returns a
        boolean vector, so it passes `_check_memory` first; a canonical
        shape_tag is tested on the axes instead.  Useful for monotonicity
        experiments where the smaller region must live on the identical
        lattice and box.
        """
        if shape_tag is None:
            _check_memory(_LATTICE_BYTES["predicate"] * self.n_nodes,
                          f"lattice arrays for {self.n_nodes} nodes")
        mask = self.inside & _membership(self.axes, self.h, shape_tag, predicate)
        return GridDomain(
            dim=self.dim,
            h=self.h,
            axes=self.axes,
            inside=mask,
            shape_tag=shape_tag,
            margin=self.margin,
        )


@dataclass(eq=False)
class GridFunction:
    """Real values on every lattice node of a domain.

    ``zero_extended`` marks functions that vanish identically outside the
    region (the default for anything fed to the nonlocal energy); comparison
    functions such as cones carry meaningful values everywhere and set it to
    False.
    """

    domain: GridDomain
    values: np.ndarray
    zero_extended: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.lattice_shape:
            raise ValueError(
                f"values shape {self.values.shape} != lattice {self.domain.lattice_shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("grid function contains non-finite values")
        # the nonzeros outside are those over the box less those at the inside
        # nodes: two counts, no copy of the outside values
        if self.zero_extended and (np.count_nonzero(self.values)
                                   > np.count_nonzero(self.inside_values())):
            raise ValueError("zero-extended grid function is nonzero outside the region")

    @classmethod
    def from_inside(cls, domain: GridDomain, inside_values: np.ndarray) -> "GridFunction":
        """Build a zero-extended function from values on the inside nodes."""
        inside_values = np.asarray(inside_values, dtype=float)
        if inside_values.shape != (domain.inside_count,):
            raise ValueError(
                f"expected {domain.inside_count} inside values, got {inside_values.shape}"
            )
        full = np.zeros(domain.n_nodes)
        full[domain.inside_indices] = inside_values
        return cls(domain, full.reshape(domain.lattice_shape))

    def inside_values(self) -> np.ndarray:
        return self.values.ravel()[self.domain.inside_indices]

    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(eq=False)
class NodeSet:
    """A finite set of lattice nodes, stored as sorted unique flat indices."""

    domain: GridDomain
    indices: np.ndarray

    def __post_init__(self):
        idx = _unique(np.asarray(self.indices, dtype=np.int64))
        if idx.size == 0:
            raise ValueError("node set is empty")
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
                predicate: Optional[Callable[[np.ndarray], np.ndarray]]) -> np.ndarray:
    """Membership mask of the product lattice of `axes`: a canonical shape's
    `_inside` on the sparse axes, with the boundary guard of spacing h, or
    else a predicate on every node's coordinates, made for the call alone."""
    if shape is not None:
        return shape._inside(*np.meshgrid(*axes, indexing="ij", sparse=True, copy=False),
                             guard=_BOUNDARY_GUARD * h)
    if predicate is None:
        raise ValueError("need a predicate or a canonical shape")
    return np.asarray(predicate(_node_coords(axes)), dtype=bool).reshape(tuple(map(len, axes)))


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
    inside = _membership(axes, h, shape, inside_of)
    if shape is None:  # the predicate counts only inside the tight box
        inside = inside & _membership(axes, h, Rectangle(*lo, *hi), None)
    return GridDomain(dim=len(axes), h=float(h), axes=axes, inside=inside,
                      shape_tag=shape, margin=float(margin))


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


def build_mask2d(box, h: float, inside_predicate: Callable[[np.ndarray], np.ndarray],
                 margin: float = 2.0, shape: Optional[CanonicalShape] = None,
                 anchor=None) -> GridDomain:
    """2D lattice domain from a membership predicate.

    ``box`` is the (lo, hi) pair of 2-vectors tightly bounding the region; the
    lattice extends ``margin * diam(box)`` beyond it on every side.  The
    predicate receives (N, 2) coordinates and returns booleans; it is only
    honored inside the tight box.  Pass ``shape`` for a registered canonical
    shape to get exact distances downstream (the predicate is then ignored in
    favor of the shape's own membership test).
    """
    lo, hi = (np.asarray(corner, dtype=float) for corner in box)
    if lo.shape != (2,) or hi.shape != (2,) or not np.all(hi > lo):
        raise ValueError(f"degenerate 2D box: lo={lo}, hi={hi}")
    anchor = lo if anchor is None else np.asarray(anchor, dtype=float)
    return _lattice(lo, hi, h, margin, anchor, inside_predicate, shape)


def build_disk(center, radius: float, h: float, margin: float = 2.0) -> GridDomain:
    """Canonical disk domain; the center is a lattice node by construction."""
    cx, cy = float(center[0]), float(center[1])
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    shape = Disk(cx, cy, float(radius))
    return build_mask2d(shape.bounding_box(), h, None, margin=margin, shape=shape,
                        anchor=np.array([cx, cy]))


def build_rectangle(lo, hi, h: float, margin: float = 2.0) -> GridDomain:
    """Canonical axis-aligned rectangle domain anchored at its lower corner."""
    shape = Rectangle(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
    return build_mask2d(shape.bounding_box(), h, None, margin=margin, shape=shape)


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
    """
    shape = dom.lattice_shape
    at = np.unravel_index(nodes, shape)
    # (the mask moved, the lattice indices of the nodes' images)
    moves = [(np.flip(dom.inside, ax), at[:ax] + (shape[ax] - 1 - at[ax],) + at[ax + 1:])
             for ax in range(dom.dim)]
    if dom.dim == 2 and shape[0] == shape[1]:
        moves.append((dom.inside.T, at[::-1]))
    gens = [np.searchsorted(nodes, np.ravel_multi_index(image, shape))
            for mask, image in moves if np.array_equal(mask, dom.inside)]
    group = [np.arange(nodes.size)]
    seen = {group[0].tobytes()}
    for g in group:  # the loop also visits the elements it appends
        for s in gens:
            composed = g[s]  # (g s)(x) = g(s(x))
            key = composed.tobytes()
            if key not in seen:
                seen.add(key)
                group.append(composed)
    return group


def _orbits(group: list) -> tuple:
    """Orbits of a group of permutations of positions 0 .. m - 1 (identity
    first), each numbered by its smallest position: ``(reps, labels, elem)``
    with reps the ascending smallest positions, labels[i] the orbit of
    position i, and group[elem[i]] an element mapping reps[labels[i]] to i.
    Sorts nothing."""
    first = np.minimum.reduce(group)  # the smallest position of each position's orbit
    reps = np.flatnonzero(first == np.arange(first.size))
    labels = np.searchsorted(reps, first)
    elem = np.zeros(first.size, dtype=np.int64)
    for k, g in enumerate(group):
        elem[g[reps]] = k
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


def _offset_distances(dom: GridDomain, rows: np.ndarray, cols: np.ndarray,
                      power: float = 1.0, zero: float = 0.0) -> tuple:
    """Distances between lattice nodes by their integer index offset a,
    raised to `power`: ``(table, row_keys, col_keys, (at, ext))`` with
    table[row_keys[i] - col_keys[j]] = (h * sqrt(sum_k a_k**2))**power, a the
    offset of node rows[i] from node cols[j] (flat indices, any order), and
    `zero` at a = 0.  The table spans a_k = -ext[k] .. ext[k], the extents of
    the nodes' bounding box (under 2**dim entries per box node); at[k] holds
    their indices along axis k from its low corner, rows first.  Reflections
    permute offsets, so keep every distance bitwise; for h a power of two and
    nodes at multiples of h these are the coordinate distances."""
    at = [a - a.min() for a in np.unravel_index(np.concatenate([rows, cols]), dom.lattice_shape)]
    ext = [int(a.max()) for a in at]
    offsets = np.ix_(*[np.arange(-e, e + 1, dtype=float) for e in ext])
    table = sum(a * a for a in offsets).ravel()  # a new array, so sqrt and scale in place
    table = np.multiply(np.sqrt(table, out=table), dom.h, out=table)
    middle = table.size // 2  # the zero offset, set apart so 0 meets no negative power
    table[middle] = 1.0
    table **= power  # ** rather than np.power: a power of 0.5 takes numpy's sqrt path
    table[middle] = zero
    keys = np.ravel_multi_index(at, [2 * e + 1 for e in ext])
    return table, keys[:len(rows)] + middle, keys[len(rows):], (at, ext)


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


def _nearest_distances(dom: GridDomain, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Distance from each node of rows to the nearest node of cols (flat
    indices), a minimum over the `_offset_distances` table in row blocks."""
    table, row_keys, col_keys = _offset_distances(dom, rows, cols)[:3]
    d = np.empty(len(rows))
    step = block_rows(len(cols))
    work = np.empty(min(step, len(rows)) * len(cols))
    for k0 in range(0, len(rows), step):
        _gather(table, row_keys[k0:k0 + step], col_keys, work).min(axis=1, out=d[k0:k0 + step])
    return d


def distance_to_complement(dom: GridDomain) -> GridFunction:
    """Distance from each node to the complement of the region (zero outside),
    as a fresh function on the whole lattice.  Its inside values are the
    domain's `GridDomain.inside_distance`, computed once per domain."""
    vals = np.zeros(dom.n_nodes)
    vals[dom.inside_indices] = dom.inside_distance
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


def inscribed_radius(delta: GridFunction) -> float:
    """Largest distance-to-complement value on the lattice."""
    return float(delta.values.max())


def high_ridge(delta: GridFunction, tol: Optional[float] = None) -> NodeSet:
    """Nodes where the distance to the complement is within tol of its maximum.

    Default tolerance is h/2, which captures exactly the nodes sitting on the
    continuum ridge whenever that ridge passes through lattice nodes.
    """
    dom = delta.domain
    if tol is None:
        tol = dom.h / 2.0
    if tol < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    r = inscribed_radius(delta)
    flat = delta.flat()
    mask = (flat >= r - tol) & dom.inside_flat
    return NodeSet(dom, np.flatnonzero(mask))


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
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (dom.dim,):
        raise ValueError(f"point must have {dom.dim} coordinates")
    if not np.isfinite(p).all():
        raise ValueError(f"point must be finite, got {p.tolist()}")
    at = [np.argmin((ax - c) ** 2) for ax, c in zip(dom.axes, p)]
    return int(np.ravel_multi_index(at, dom.lattice_shape))
