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
* distances are Euclidean and in physical units (not multiples of ``h``).
"""

from __future__ import annotations

import math
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
    "squared_distances",
    "distances",
]

# Elements in one block temporary of the pairwise-distance loops (here and in
# energy, infinity): 2**17 doubles, 1 MB, so a block and the few arrays made
# from it stay in a core's L2 cache.
_BLOCK_ELEMENTS = 2**17

# Fraction of h used as a guard band: nodes this close to a canonical boundary
# count as outside, so inside nodes always carry a strictly positive distance.
_BOUNDARY_GUARD = 1e-9


# ---------------------------------------------------------------------------
# canonical shapes (exact membership and exact distance to the complement)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
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

    def contains(self, pts: np.ndarray, guard: float) -> np.ndarray:
        x = pts[:, 0]
        return (x > self.a + guard) & (x < self.b - guard)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, 0]
        return np.maximum(np.minimum(x - self.a, self.b - x), 0.0)


@dataclass(frozen=True)
class Disk:
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

    def contains(self, pts: np.ndarray, guard: float) -> np.ndarray:
        d = np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy)
        return d < self.r - guard

    def distance(self, pts: np.ndarray) -> np.ndarray:
        d = np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy)
        return np.maximum(self.r - d, 0.0)


@dataclass(frozen=True)
class Rectangle:
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

    def contains(self, pts: np.ndarray, guard: float) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
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
    margin : the box extends at least ``margin * diameter`` beyond the region
        on every side.

    Instances are treated as immutable; do not mutate ``inside`` in place.
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
        """(n_nodes, dim) coordinates in flat C order."""
        if self.dim == 1:
            return self.axes[0][:, None].copy()
        gx, gy = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @cached_property
    def inside_flat(self) -> np.ndarray:
        return self.inside.ravel()

    @cached_property
    def inside_indices(self) -> np.ndarray:
        return np.flatnonzero(self.inside_flat)

    @cached_property
    def inside_coords(self) -> np.ndarray:
        return self.node_coords[self.inside_indices]

    @property
    def inside_count(self) -> int:
        return int(self.inside_indices.size)

    def same_lattice(self, other: "GridDomain") -> bool:
        """True when two domains share dim, spacing and node coordinates."""
        return (
            self.dim == other.dim
            and self.h == other.h
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
        )

    def restricted(self, predicate: Callable[[np.ndarray], np.ndarray],
                   shape_tag: Optional[CanonicalShape] = None) -> "GridDomain":
        """Sub-domain on the same lattice: inside nodes that satisfy predicate.

        The predicate receives an (N, dim) coordinate array and returns a
        boolean vector.  Useful for monotonicity experiments where the smaller
        region must live on the identical lattice and box.
        """
        if shape_tag is not None:
            guard = _BOUNDARY_GUARD * self.h
            keep = shape_tag.contains(self.node_coords, guard)
        elif predicate is not None:
            keep = np.asarray(predicate(self.node_coords), dtype=bool)
        else:
            raise ValueError("need a predicate or a canonical shape")
        mask = self.inside_flat & keep
        return GridDomain(
            dim=self.dim,
            h=self.h,
            axes=self.axes,
            inside=mask.reshape(self.lattice_shape),
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
        if self.zero_extended:
            off = self.values.ravel()[~self.domain.inside_flat]
            if off.size and np.any(off != 0.0):
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
        idx = np.unique(np.asarray(self.indices, dtype=np.int64))
        if idx.size == 0:
            raise ValueError("node set is empty")
        if idx[0] < 0 or idx[-1] >= self.domain.n_nodes:
            raise ValueError("node index out of lattice range")
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)

    def coords(self) -> np.ndarray:
        return self.domain.node_coords[self.indices]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _axis(anchor: float, lo: float, hi: float, h: float) -> np.ndarray:
    """Lattice axis anchored at `anchor`, covering [lo, hi]."""
    k0 = -int(math.ceil((anchor - lo) / h - 1e-12))
    k1 = int(math.ceil((hi - anchor) / h - 1e-12))
    return anchor + h * np.arange(k0, k1 + 1)


def build_interval(a: float, b: float, h: float, margin: float = 2.0) -> GridDomain:
    """1D lattice for the open interval (a, b).

    The lattice is anchored at ``a`` (so endpoints are nodes whenever h divides
    b - a) and covers [a - margin*(b-a), b + margin*(b-a)].  Nodes strictly
    between a and b are inside.
    """
    if not (b > a):
        raise ValueError(f"degenerate interval: a={a}, b={b}")
    if not (h > 0.0):
        raise ValueError(f"spacing h must be positive, got {h}")
    if margin < 1.0:
        raise ValueError(f"margin must be >= 1, got {margin}")
    shape = Interval(float(a), float(b))
    ext = margin * shape.diameter
    xs = _axis(a, a - ext, b + ext, h)
    pts = xs[:, None]
    inside = shape.contains(pts, _BOUNDARY_GUARD * h)
    return GridDomain(dim=1, h=float(h), axes=(xs,), inside=inside,
                      shape_tag=shape, margin=float(margin))


def _build_lattice2d(box_lo, box_hi, h, margin, anchor):
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != (2,) or hi.shape != (2,) or not np.all(hi > lo):
        raise ValueError(f"degenerate 2D box: lo={lo}, hi={hi}")
    if not (h > 0.0):
        raise ValueError(f"spacing h must be positive, got {h}")
    if margin < 1.0:
        raise ValueError(f"margin must be >= 1, got {margin}")
    diam = float(np.hypot(*(hi - lo)))
    ext = margin * diam
    anchor = lo if anchor is None else np.asarray(anchor, dtype=float)
    xs = _axis(anchor[0], lo[0] - ext, hi[0] + ext, h)
    ys = _axis(anchor[1], lo[1] - ext, hi[1] + ext, h)
    return xs, ys


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
    box_lo, box_hi = box
    xs, ys = _build_lattice2d(box_lo, box_hi, h, margin, anchor)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    guard = _BOUNDARY_GUARD * h
    if shape is not None:
        mask = shape.contains(pts, guard)
    else:
        if inside_predicate is None:
            raise ValueError("need a predicate or a canonical shape")
        lo = np.asarray(box_lo, dtype=float)
        hi = np.asarray(box_hi, dtype=float)
        in_box = np.all((pts > lo + guard) & (pts < hi - guard), axis=1)
        mask = np.asarray(inside_predicate(pts), dtype=bool) & in_box
    inside = mask.reshape(len(xs), len(ys))
    return GridDomain(dim=2, h=float(h), axes=(xs, ys), inside=inside,
                      shape_tag=shape, margin=float(margin))


def build_disk(center, radius: float, h: float, margin: float = 2.0) -> GridDomain:
    """Canonical disk domain; the center is a lattice node by construction."""
    cx, cy = float(center[0]), float(center[1])
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    shape = Disk(cx, cy, float(radius))
    lo, hi = shape.bounding_box()
    return build_mask2d((lo, hi), h, None, margin=margin, shape=shape,
                        anchor=np.array([cx, cy]))


def build_rectangle(lo, hi, h: float, margin: float = 2.0) -> GridDomain:
    """Canonical axis-aligned rectangle domain anchored at its lower corner."""
    shape = Rectangle(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
    blo, bhi = shape.bounding_box()
    return build_mask2d((blo, bhi), h, None, margin=margin, shape=shape, anchor=blo)


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------


def lattice_symmetries(dom: GridDomain) -> list:
    """The lattice reflections that map the mask onto itself, as permutations
    of the inside nodes.

    The candidates are the flip of each axis (node k of an axis with n nodes
    goes to node n - 1 - k) and, on a square lattice, the swap of the two
    axes.  The box is the span of the first and last node of each axis, so a
    flip is the reflection about the box centre and the swap the reflection
    about its diagonal: each maps the lattice and the box onto themselves and
    keeps every distance.  A candidate counts when it maps the mask onto
    itself exactly.  The result is the group the counted candidates generate,
    identity first, one array per element: entry i is the position in
    ``inside_indices`` of the image of inside node i.
    """
    pos = np.full(dom.n_nodes, -1)
    pos[dom.inside_indices] = np.arange(dom.inside_count)
    pos = pos.reshape(dom.lattice_shape)
    moves = [lambda a, ax=ax: np.flip(a, ax) for ax in range(dom.dim)]
    if dom.dim == 2 and dom.lattice_shape[0] == dom.lattice_shape[1]:
        moves.append(np.transpose)
    gens = [move(pos).ravel()[dom.inside_indices] for move in moves
            if np.array_equal(move(dom.inside), dom.inside)]
    group = [np.arange(dom.inside_count)]
    for g in group:  # the loop also visits the elements it appends
        for s in gens:
            composed = g[s]
            if not any(np.array_equal(composed, e) for e in group):
                group.append(composed)
    return group


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


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between two point arrays.

    Summed axis by axis, (a0-b0)**2 + (a1-b1)**2, as scipy's cdist does, so
    the values agree with it bitwise.
    """
    bt = np.ascontiguousarray(b.T)  # contiguous per-axis rows keep the loops vectorized
    d2 = np.subtract.outer(a[:, 0], bt[0])
    d2 *= d2
    for k in range(1, a.shape[1]):
        t = np.subtract.outer(a[:, k], bt[k])
        t *= t
        d2 += t
    return d2


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two point arrays."""
    d = squared_distances(a, b)
    return np.sqrt(d, out=d)


def _nearest_distances(pts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest target, scanned in row blocks."""
    d = np.empty(len(pts))
    rows = block_rows(len(targets))
    for k0 in range(0, len(pts), rows):
        d[k0:k0 + rows] = squared_distances(pts[k0:k0 + rows], targets).min(axis=1)
    return np.sqrt(d, out=d)


def distance_to_complement(dom: GridDomain) -> GridFunction:
    """Distance from each node to the complement of the region (zero outside).

    Canonical shapes get the exact analytic distance; free-form masks get the
    exact Euclidean distance to the nearest outside node, which approximates
    the continuum distance to O(h).  That node always lies on the outside
    ring, the outside axis neighbours of inside nodes: one lattice step from
    it toward the inside node lands inside, or a nearer outside node would
    exist.  So only the ring is scanned.
    """
    if dom.shape_tag is not None:
        vals = dom.shape_tag.distance(dom.node_coords)
        vals = np.where(dom.inside_flat, vals, 0.0)
        return GridFunction(dom, vals.reshape(dom.lattice_shape))
    ring = (_dilate(dom.inside) & ~dom.inside).ravel()
    vals = np.zeros(dom.n_nodes)
    vals[dom.inside_indices] = _nearest_distances(dom.inside_coords, dom.node_coords[ring])
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

    The result is exact (the set is finite), vanishes exactly on the set, and
    is 1-Lipschitz.  It is not zero-extended: the distance is meaningful on the
    whole lattice.
    """
    if nodes.domain is not dom and not dom.same_lattice(nodes.domain):
        raise ValueError("node set lives on a different lattice")
    d = _nearest_distances(dom.node_coords, nodes.coords())
    return GridFunction(dom, d.reshape(dom.lattice_shape), zero_extended=False)


def nearest_node(dom: GridDomain, point) -> int:
    """Flat index of the lattice node closest to a point."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (dom.dim,):
        raise ValueError(f"point must have {dom.dim} coordinates")
    return int(np.argmin(squared_distances(p[None, :], dom.node_coords)))
