"""Extremal Hoelder-quotient operators and the limiting eigenvalue equation.

For exponent alpha in (0, 1] and a grid function u, the two half-operators at
a node x are the supremum and infimum over y of

    (u(y) - u(x)) / |y - x|^alpha .

For a zero-extended u the sup/inf run over all of R^n, and every y outside
the region contributes -u(x) / |y - x|^alpha.  Only two such y can be
extreme: the nearest outside node, and the far field, where the quotient
tends to 0.  The nearest outside node lies on the outside ring, the outside
axis neighbours of inside nodes (``geometry.distance_to_complement`` gives the
reason), so the scan covers the inside nodes and that ring, in ascending flat
index, and then offers the far field at value 0 (witness index -1), which
wins only when strictly better.  At a strict positive maximum l_plus is
therefore exactly 0, whatever the box margin.  Comparison functions that are
not zero-extended (cones) are scanned over every box node; the box is all the
lattice knows of them.  Ties go to the lowest flat index.

The first-eigenvalue equation residual at an inside node is

    max( l_plus + l_minus ,  l_minus + lam * u )

and the sign-changing (higher eigenvalue) residual switches branches with the
sign of u, using a dead band proportional to one lattice cell of Hoelder
variation to classify "u = 0" nodes.  Each report makes one scan over the
inside nodes and reads the seminorm that sizes the dead band off that scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import (
    GridDomain,
    GridFunction,
    Interval,
    NodeSet,
    _dilate,
    block_rows,
    distance_to_complement,
    distance_to_set,
    distances,
    high_ridge,
    inscribed_radius,
)

__all__ = [
    "InfinityReport",
    "linf_plus",
    "linf_minus",
    "linf_minus_analytic",
    "first_residual",
    "higher_residual",
    "representation",
    "cone",
    "lambda_infinity",
    "r2_radius",
    "holder_seminorm",
]

EXTERIOR_WITNESS = -1  # witness index marking the far field, where u = 0

# branch labels stored per node
BRANCH_OPERATOR = "op"     # the full-operator branch l_plus + l_minus attains the max
BRANCH_EIGEN = "eig"       # the eigen-balance branch attains it
BRANCH_ZERO = "zero"       # node classified as u = 0 (dead band)


def _extreme_quotients(u: GridFunction, alpha: float,
                       base: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Max/min Hoelder quotients (and witnesses) for each base node: over R^n
    for a zero-extended u, over the box otherwise (see the module docstring)."""
    dom = u.domain
    if u.zero_extended:
        cand = np.flatnonzero(_dilate(dom.inside))
    else:
        cand = np.arange(dom.n_nodes)
    coords = dom.node_coords[cand]
    vals = u.flat()[cand]
    base = np.asarray(base, dtype=np.int64)
    bc = dom.node_coords[base]
    bv = u.flat()[base]
    # column of each base node among the candidates, where it is one (y = x is excluded)
    col = np.minimum(np.searchsorted(cand, base), cand.size - 1)
    is_cand = cand[col] == base

    n = base.size
    l_plus = np.empty(n)
    w_plus = np.empty(n, dtype=np.int64)
    l_minus = np.empty(n)
    w_minus = np.empty(n, dtype=np.int64)

    rows = block_rows(cand.size)
    for k0 in range(0, n, rows):
        sl = slice(k0, min(k0 + rows, n))
        self_row = np.flatnonzero(is_cand[sl])
        self_col = col[sl][self_row]
        d = distances(bc[sl], coords)
        d[self_row, self_col] = np.inf
        d **= alpha  # ** rather than np.power: alpha = 0.5 takes numpy's sqrt path
        quot = vals[None, :] - bv[sl, None]
        quot /= d
        quot[self_row, self_col] = -np.inf
        l_plus[sl] = quot.max(axis=1)
        w_plus[sl] = cand[quot.argmax(axis=1)]
        quot[self_row, self_col] = np.inf
        l_minus[sl] = quot.min(axis=1)
        w_minus[sl] = cand[quot.argmin(axis=1)]

    if u.zero_extended:
        up = 0.0 > l_plus
        l_plus[up] = 0.0
        w_plus[up] = EXTERIOR_WITNESS
        dn = 0.0 < l_minus
        l_minus[dn] = 0.0
        w_minus[dn] = EXTERIOR_WITNESS

    return l_plus, w_plus, l_minus, w_minus


def linf_plus(u: GridFunction, alpha: float, x: int) -> Tuple[float, int]:
    """Sup of the alpha-quotient at node x; returns (value, witness index).

    Witness -1 means the far field won: every other quotient is negative.
    """
    _check_alpha(alpha)
    lp, wp, _, _ = _extreme_quotients(u, alpha, np.array([_node(u.domain, x)]))
    return float(lp[0]), int(wp[0])


def linf_minus(u: GridFunction, alpha: float, x: int) -> Tuple[float, int]:
    """Inf of the alpha-quotient at node x; returns (value, witness index).

    Witness -1 means the far field won: every other quotient is positive.
    """
    _check_alpha(alpha)
    _, _, lm, wm = _extreme_quotients(u, alpha, np.array([_node(u.domain, x)]))
    return float(lm[0]), int(wm[0])


def linf_minus_analytic(u: GridFunction, delta: GridFunction, alpha: float,
                        x: int) -> float:
    """-u(x) / delta(x)^alpha: the infimum a nonnegative zero-extended function
    attains in the complement of the region."""
    _check_alpha(alpha)
    x = _node(u.domain, x)
    dx = delta.flat()[x]
    if not (dx > 0.0):
        raise RuntimeError(f"distance vanishes at node {x}; not an inside node?")
    return float(-u.flat()[x] / dx ** alpha)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _node(dom: GridDomain, x) -> int:
    """x as a flat node index; numpy would silently wrap a negative one."""
    x = int(x)
    if not (0 <= x < dom.n_nodes):
        raise ValueError(f"node index {x} out of range")
    return x


def holder_seminorm(u: GridFunction, alpha: float) -> float:
    """Discrete alpha-Hoelder seminorm: max quotient over node pairs.

    Pairs with both values zero contribute nothing, so scanning (nonzero node,
    any node) pairs is exact.  The far-field candidate of a zero-extended u
    is 0, so it cannot raise the maximum of |quotient|.
    """
    _check_alpha(alpha)
    nz = np.flatnonzero(u.flat())
    if nz.size == 0:
        return 0.0
    lp, _, lm, _ = _extreme_quotients(u, alpha, nz)
    return float(max(lp.max(), -lm.min(), 0.0))


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InfinityReport:
    """Per-inside-node evaluation of the limiting eigenvalue equation."""

    domain: GridDomain
    alpha: float
    lam: float
    nodes: np.ndarray            # flat indices of inside nodes
    u: np.ndarray
    delta: np.ndarray
    l_plus: np.ndarray
    witness_plus: np.ndarray
    l_minus: np.ndarray
    witness_minus: np.ndarray
    l_minus_analytic: np.ndarray
    branch: np.ndarray           # per-node label, see BRANCH_* constants
    residual: np.ndarray

    @property
    def interior_mask(self) -> np.ndarray:
        """Nodes deeper than the 2h boundary collar."""
        return self.delta > 2.0 * self.domain.h

    def sup_norm(self, exclude_collar: bool = False) -> float:
        r = np.abs(self.residual)
        if exclude_collar:
            r = r[self.interior_mask]
        return float(r.max()) if r.size else 0.0

    def worst_node(self, exclude_collar: bool = False) -> int:
        r = np.abs(self.residual)
        idx = self.nodes
        if exclude_collar:
            keep = self.interior_mask
            r, idx = r[keep], idx[keep]
        return int(idx[np.argmax(r)]) if r.size else -1

    def summary(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda": self.lam,
            "nodes": int(self.nodes.size),
            "sup_residual": self.sup_norm(),
            "sup_residual_interior": self.sup_norm(exclude_collar=True),
            "worst_node": self.worst_node(),
            "worst_node_interior": self.worst_node(exclude_collar=True),
        }

    def rows(self):
        """Per-node tuples for CSV export (coords, values, witnesses, branch)."""
        coords = self.domain.node_coords[self.nodes]
        return zip(self.nodes.tolist(), *coords.T.tolist(), self.u.tolist(),
                   self.delta.tolist(), self.l_plus.tolist(),
                   self.witness_plus.tolist(), self.l_minus.tolist(),
                   self.witness_minus.tolist(), self.l_minus_analytic.tolist(),
                   self.branch.tolist(), self.residual.tolist())


def _residual_report(u: GridFunction, alpha: float, lam: float, delta: GridFunction,
                     band_scale: Optional[float], name: str) -> InfinityReport:
    """One extreme-quotient scan over the inside nodes.  band_scale None is the
    first-eigenvalue equation: u >= 0 and no dead band."""
    _check_alpha(alpha)
    if not u.zero_extended:
        raise ValueError(f"{name} expects a zero-extended function")
    if band_scale is not None and not band_scale >= 0.0:  # NaN included
        raise ValueError("band_scale must be >= 0")
    dom = u.domain
    if delta.domain is not dom and not dom.same_lattice(delta.domain):
        raise ValueError("distance function lives on a different lattice")
    nodes = dom.inside_indices
    uin = u.flat()[nodes]
    din = delta.flat()[nodes]
    if np.any(din <= 0.0):
        raise RuntimeError("distance must be positive at inside nodes")
    if band_scale is None and np.any(uin < 0.0):
        raise ValueError(f"{name} expects a nonnegative function")
    lp, wp, lm, wm = _extreme_quotients(u, alpha, nodes)

    # the seminorm is holder_seminorm(u, alpha) exactly: every pair with a
    # nonzero end is a row of this scan, and |x - y| is bitwise symmetric
    band = (-np.inf if band_scale is None
            else band_scale * dom.h ** alpha * max(lp.max(), -lm.min(), 0.0))
    zero = np.abs(uin) <= band
    neg = (uin < 0.0) & ~zero
    pos = ~(zero | neg)

    op = lp + lm
    pos_eig = lm + lam * uin
    neg_eig = lp + lam * uin
    residual = np.empty_like(uin)
    branch = np.empty(uin.shape, dtype="U8")
    residual[zero] = op[zero]
    branch[zero] = BRANCH_ZERO
    residual[pos] = np.maximum(op[pos], pos_eig[pos])
    branch[pos] = np.where(op[pos] >= pos_eig[pos], BRANCH_OPERATOR, BRANCH_EIGEN)
    residual[neg] = np.minimum(op[neg], neg_eig[neg])
    branch[neg] = np.where(op[neg] <= neg_eig[neg], BRANCH_OPERATOR, BRANCH_EIGEN)

    return InfinityReport(domain=dom, alpha=alpha, lam=lam, nodes=nodes,
                          u=uin, delta=din, l_plus=lp, witness_plus=wp,
                          l_minus=lm, witness_minus=wm, l_minus_analytic=-uin / din ** alpha,
                          branch=branch, residual=residual)


def first_residual(u: GridFunction, alpha: float, lam: float,
                   delta: GridFunction) -> InfinityReport:
    """Residual of max{ l_plus + l_minus, l_minus + lam*u } = 0 for u >= 0."""
    return _residual_report(u, alpha, lam, delta, None, "first_residual")


def higher_residual(u: GridFunction, alpha: float, lam: float,
                    delta: GridFunction, band_scale: float = 1.0) -> InfinityReport:
    """Residual of the sign-switching eigenvalue equation.

    Branches: where u > 0 the first-eigenvalue max-branch applies; where u < 0
    the mirrored min{ l_plus + l_minus, l_plus + lam*u }; nodes with |u| below
    the dead band count as u = 0 and must satisfy l_plus + l_minus = 0.  The
    dead band is band_scale * h^alpha * [u]_alpha, one lattice cell's worth of
    Hoelder variation, so it vanishes under refinement.  The seminorm is read
    off the same scan that gives l_plus and l_minus: one scan per report.
    """
    return _residual_report(u, alpha, lam, delta, band_scale, "higher_residual")


# ---------------------------------------------------------------------------
# closed-form objects
# ---------------------------------------------------------------------------


def representation(dom: GridDomain, gamma1: NodeSet, alpha: float, *,
                   delta: Optional[GridFunction] = None) -> GridFunction:
    """First eigenfunction of the limiting equation built from distances.

    u = delta^alpha / (delta^alpha + rho^alpha), where delta is the distance to
    the complement and rho the distance to the chosen subset gamma1 of the
    ridge, high_ridge(delta).  Equals 1 exactly on gamma1, lies in (0, 1]
    inside, 0 outside.  A caller that already holds distance_to_complement(dom)
    passes it as delta; it must live on the lattice of dom.
    """
    _check_alpha(alpha)
    if delta is None:
        delta = distance_to_complement(dom)
    elif delta.domain is not dom and not dom.same_lattice(delta.domain):
        raise ValueError("distance function lives on a different lattice")
    if not np.isin(gamma1.indices, high_ridge(delta).indices).all():
        raise ValueError("gamma1 contains nodes outside the ridge tolerance")
    rho = distance_to_set(dom, gamma1)
    da = delta.flat() ** alpha
    ra = rho.flat() ** alpha
    vals = np.where(dom.inside_flat, da / (da + ra), 0.0)
    return GridFunction(dom, vals.reshape(dom.lattice_shape))


def cone(dom: GridDomain, x0: int, radius: float, alpha: float,
         eps: Optional[float] = None) -> GridFunction:
    """Truncated comparison cone centered at lattice node x0 (not zero-extended).

    alpha < 1: C = min(|x-x0|^alpha, radius^alpha).
    alpha = 1: C = min(|x-x0| - eps|x-x0|^2, radius - eps*radius^2) with
    eps*radius < 1 (default eps = 1/(4*radius)).
    """
    _check_alpha(alpha)
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    x0 = int(x0)
    coords = dom.node_coords
    r = distances(coords[x0:x0 + 1], coords)[0]
    if alpha < 1.0:
        vals = np.minimum(r ** alpha, radius ** alpha)
    else:
        if eps is None:
            eps = 1.0 / (4.0 * radius)
        if not (0.0 < eps * radius < 1.0):
            raise ValueError(f"need 0 < eps*radius < 1, got eps*radius = {eps * radius}")
        vals = np.minimum(r - eps * r ** 2, radius - eps * radius ** 2)
    return GridFunction(dom, vals.reshape(dom.lattice_shape), zero_extended=False)


def lambda_infinity(dom: GridDomain, alpha: float) -> float:
    """Limiting first eigenvalue: (inscribed radius)^(-alpha)."""
    _check_alpha(alpha)
    r = inscribed_radius(distance_to_complement(dom))
    return float(r ** (-alpha))


def r2_radius(dom: GridDomain) -> float:
    """Largest radius such that two disjoint balls of that radius fit inside.

    Canonical intervals get the exact value (b - a) / 4; other domains get a
    grid search over inside-node pairs maximizing
    min(delta(x), delta(y), |x - y| / 2).
    """
    tag = dom.shape_tag
    if isinstance(tag, Interval):
        return (tag.b - tag.a) / 4.0
    delta = distance_to_complement(dom).flat()[dom.inside_indices]
    pts = dom.inside_coords
    best = 0.0
    # cap is symmetric (bitwise), so a block needs only the columns from its own
    # first row on: the pairs before them were rows of an earlier block
    rows = block_rows(pts.shape[0])
    for k0 in range(0, pts.shape[0], rows):
        blk = slice(k0, k0 + rows)
        cap = distances(pts[blk], pts[k0:])
        cap *= 0.5
        np.minimum(cap, delta[None, k0:], out=cap)
        np.minimum(cap, delta[blk, None], out=cap)
        best = max(best, float(cap.max()))
    return best
